package repro.util

/** The nodes scheduled to rerun, one bitset over the node space per
  * iteration. A level's bitset is allocated the first time a node is
  * scheduled at that level and kept for later batches; `poll` hands a
  * level's nodes out in ascending order and clears them as it goes, so a
  * drained frontier is empty again without a reset.
  */
final class Frontier(numNodes: Int) {
  private val words = (numNodes + 63) >>> 6
  private var bits = new Array[Array[Long]](0)
  /** Per level: every word below this index is zero. */
  private var low = new Array[Int](0)

  def add(level: Int, node: Int): Unit = {
    if (level >= bits.length) {
      val cap = math.max(level + 1, bits.length * 2)
      bits = java.util.Arrays.copyOf(bits, cap)
      low = java.util.Arrays.copyOf(low, cap)
    }
    var b = bits(level)
    if (b == null) { b = new Array[Long](words); bits(level) = b; low(level) = words }
    val w = node >>> 6
    b(w) |= 1L << node
    if (w < low(level)) low(level) = w
  }

  /** Remove and return the smallest node scheduled at `level`, or -1. */
  def poll(level: Int): Int = {
    if (level >= bits.length || bits(level) == null) return -1
    val b = bits(level)
    var w = low(level)
    while (w < words && b(w) == 0L) w += 1
    low(level) = w
    if (w == words) return -1
    val word = b(w)
    b(w) = word & (word - 1)
    (w << 6) | java.lang.Long.numberOfTrailingZeros(word)
  }
}
