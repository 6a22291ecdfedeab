package repro.core

import repro.util.{BloomFilter, MemoryModel}

/** Receives the iterations of a [[DroppedVT]] walk. */
trait IterVisitor { def visit(iter: Int): Unit }

/** Storage for dropped (vertex, iteration) "VT pairs" — the Dropped
  * Difference Maintenance component of partial dropping (paper §5.1).
  *
  * Contract: `latestIn`/`itersIn` may over-report (false positives cause
  * only spurious recomputation) but must never under-report — a pair that
  * was `add`ed must always be found (no false negatives), otherwise
  * reassembled vertex states would silently be wrong.
  */
trait DroppedVT {
  /** Record that the difference for (node, iter) was dropped. */
  def add(node: Int, iter: Int): Unit

  /** Latest possibly-dropped iteration in (loExclusive, hiInclusive], or -1. */
  def latestIn(node: Int, loExclusive: Int, hiInclusive: Int): Int

  /** All possibly-dropped iterations in (loExclusive, hiInclusive], ascending. */
  def itersIn(node: Int, loExclusive: Int, hiInclusive: Int): Iterator[Int]

  /** Hand each of `itersIn(node, loExclusive, hiInclusive)` to `f`, in the
    * same order. This default walks `itersIn`, so a DroppedVT that wraps
    * another sees the same lookups; the stores below override it with a
    * loop that allocates nothing.
    */
  def visitIters(node: Int, loExclusive: Int, hiInclusive: Int, f: IterVisitor): Unit = {
    val it = itersIn(node, loExclusive, hiInclusive)
    while (it.hasNext) f.visit(it.next())
  }

  /** Number of distinct logical drops recorded (for reporting). */
  def logicalCount: Long

  /** Bytes this structure is charged in the memory model. */
  def sizeBytes: Long
}

/** Det-Drop's DroppedVT (§5.1.1): a hash table keyed by vertex whose value
  * is a sorted list of dropped iterations, searched by binary search
  * (Appendix C). Exact, but costs [[MemoryModel.DroppedVtBytes]] per dropped
  * difference — the source of the d/(d+s) scalability floor. The table is
  * open-addressing over primitive arrays: a vertex, its iteration array and
  * that array's fill per slot.
  */
final class DetDroppedVT extends DroppedVT {
  private var vertices = Array.fill(16)(-1) // -1 marks an empty slot
  private var lists = new Array[Array[Int]](16)
  private var lens = new Array[Int](16)
  private var used = 0
  private var n: Long = 0L

  /** The slot holding `node`, or the empty slot where it would go. */
  private def slotOf(node: Int): Int = {
    val mask = vertices.length - 1
    val h = node * 0x9e3779b9
    var s = (h ^ (h >>> 16)) & mask
    while (vertices(s) != node && vertices(s) != -1) s = (s + 1) & mask
    s
  }

  def add(node: Int, iter: Int): Unit = {
    var s = slotOf(node)
    if (vertices(s) == -1) {
      if (2 * (used + 1) > vertices.length) { grow(); s = slotOf(node) }
      vertices(s) = node
      lists(s) = new Array[Int](2)
      used += 1
    }
    var list = lists(s)
    val len = lens(s)
    val idx = lowerBound(list, len, iter)
    if (idx < len && list(idx) == iter) return // duplicate drop of same VT
    if (len == list.length) { list = java.util.Arrays.copyOf(list, len * 2); lists(s) = list }
    System.arraycopy(list, idx, list, idx + 1, len - idx)
    list(idx) = iter
    lens(s) = len + 1
    n += 1
  }

  private def grow(): Unit = {
    val (oldVertices, oldLists, oldLens) = (vertices, lists, lens)
    vertices = Array.fill(oldVertices.length * 2)(-1)
    lists = new Array[Array[Int]](oldVertices.length * 2)
    lens = new Array[Int](oldVertices.length * 2)
    var k = 0
    while (k < oldVertices.length) {
      if (oldVertices(k) != -1) {
        val s = slotOf(oldVertices(k))
        vertices(s) = oldVertices(k); lists(s) = oldLists(k); lens(s) = oldLens(k)
      }
      k += 1
    }
  }

  /** First index below `len` with list(idx) >= key. */
  private def lowerBound(list: Array[Int], len: Int, key: Int): Int = {
    var lo = 0; var hi = len
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (list(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }

  def latestIn(node: Int, loExclusive: Int, hiInclusive: Int): Int = {
    val s = slotOf(node)
    if (vertices(s) == -1) return -1
    val list = lists(s)
    val idx = lowerBound(list, lens(s), hiInclusive + 1) - 1 // last <= hi
    if (idx >= 0 && list(idx) > loExclusive) list(idx) else -1
  }

  def itersIn(node: Int, loExclusive: Int, hiInclusive: Int): Iterator[Int] = {
    val s = slotOf(node)
    if (vertices(s) == -1) return Iterator.empty
    val list = lists(s)
    Iterator.range(lowerBound(list, lens(s), loExclusive + 1), lens(s)).map(list(_)).takeWhile(_ <= hiInclusive)
  }

  override def visitIters(node: Int, loExclusive: Int, hiInclusive: Int, f: IterVisitor): Unit = {
    val s = slotOf(node)
    if (vertices(s) == -1) return
    val list = lists(s)
    val len = lens(s)
    var k = lowerBound(list, len, loExclusive + 1)
    while (k < len && list(k) <= hiInclusive) { f.visit(list(k)); k += 1 }
  }

  def logicalCount: Long = n
  def sizeBytes: Long = n * MemoryModel.DroppedVtBytes
}

/** Prob-Drop's DroppedVT (§5.1.2): a Bloom filter over packed 8-byte
  * (vertex, iteration) keys. Fixed size regardless of how many differences
  * are dropped; possibly-dropped iterations are found by probing each
  * candidate iteration from high to low.
  */
final class ProbDroppedVT(expectedDrops: Long, bitsPerElement: Int = 10) extends DroppedVT {
  val bloom = new BloomFilter(math.max(64L, expectedDrops), bitsPerElement)
  private var n: Long = 0L

  def add(node: Int, iter: Int): Unit = {
    bloom.add(BloomFilter.packVT(node, iter))
    n += 1
  }

  def latestIn(node: Int, loExclusive: Int, hiInclusive: Int): Int = {
    var d = hiInclusive
    while (d > loExclusive) {
      if (bloom.mightContain(BloomFilter.packVT(node, d))) return d
      d -= 1
    }
    -1
  }

  def itersIn(node: Int, loExclusive: Int, hiInclusive: Int): Iterator[Int] =
    ((loExclusive + 1) to hiInclusive).iterator
      .filter(d => bloom.mightContain(BloomFilter.packVT(node, d)))

  override def visitIters(node: Int, loExclusive: Int, hiInclusive: Int, f: IterVisitor): Unit = {
    var d = loExclusive + 1
    while (d <= hiInclusive) {
      if (bloom.mightContain(BloomFilter.packVT(node, d))) f.visit(d)
      d += 1
    }
  }

  def logicalCount: Long = n
  def sizeBytes: Long = bloom.sizeBytes
}

/** Which differences to drop (paper §5.2). Deterministic in (node, iter,
  * seed) so runs are reproducible and the DuckDB/scratch oracles see the
  * same behaviour on every run.
  */
trait DropPolicy {
  /** Decide for the difference with VT pair (node, iter); `degree` is the
    * node's policy degree (total degree of its base vertex).
    */
  def shouldDrop(node: Int, iter: Int, degree: Int): Boolean
  def name: String
}

object DropPolicy {
  /** Deterministic pseudo-uniform draw in [0, 1) from (node, iter, seed). */
  private[core] def draw(node: Int, iter: Int, seed: Long): Double = {
    var z = (node.toLong << 21) ^ (iter.toLong << 1) ^ (seed * 0x9e3779b97f4a7c15L)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^= z >>> 31
    (z >>> 11).toDouble / (1L << 53).toDouble
  }

  /** Drop nothing — plain JOD. */
  case object KeepAll extends DropPolicy {
    def shouldDrop(node: Int, iter: Int, degree: Int): Boolean = false
    def name = "keep-all"
  }

  /** Random: drop each difference with probability p (§5.2 baseline). */
  final case class Random(p: Double, seed: Long = 42L) extends DropPolicy {
    def shouldDrop(node: Int, iter: Int, degree: Int): Boolean = draw(node, iter, seed) < p
    def name = s"random(p=$p)"
  }

  /** Degree-based (§5.2.1, Fig 3): always drop below τ_min, never drop
    * above τ_max, otherwise drop with probability p. The paper sets
    * τ_min = 2 and τ_max = the 80th degree percentile.
    */
  final case class Degree(p: Double, tauMin: Int, tauMax: Int, seed: Long = 42L) extends DropPolicy {
    def shouldDrop(node: Int, iter: Int, degree: Int): Boolean =
      if (degree < tauMin) true
      else if (degree > tauMax) false
      else draw(node, iter, seed) < p
    def name = s"degree(p=$p,tauMin=$tauMin,tauMax=$tauMax)"
  }
}
