package repro.util

/** An open-addressing map from `Long` keys to `Double` values in primitive
  * arrays, for per-batch tables that are cleared and refilled many times:
  * a slot is live only while its generation stamp equals the current one,
  * so `clear` is O(1) and allocates nothing. Deletion shifts the probe
  * chain back (linear probing without tombstones).
  */
final class LongDoubleMap {
  private var keys = new Array[Long](16)
  private var vals = new Array[Double](16)
  private var stamps = new Array[Int](16)
  private var live = 1
  private var n = 0

  /** The slot holding `key`, or the empty slot where it would go. */
  private def find(key: Long): Int = {
    val mask = keys.length - 1
    var s = slot(key, mask)
    while (stamps(s) == live && keys(s) != key) s = (s + 1) & mask
    s
  }

  def contains(key: Long): Boolean = stamps(find(key)) == live

  /** The value stored at `key`, which must be present. */
  def apply(key: Long): Double = {
    val s = find(key)
    if (stamps(s) != live) throw new NoSuchElementException(s"key not found: $key")
    vals(s)
  }

  def update(key: Long, value: Double): Unit = {
    var s = find(key)
    if (stamps(s) != live) {
      if (2 * (n + 1) > keys.length) { grow(); s = find(key) }
      stamps(s) = live
      keys(s) = key
      n += 1
    }
    vals(s) = value
  }

  def remove(key: Long): Unit = {
    var hole = find(key)
    if (stamps(hole) != live) return
    val mask = keys.length - 1
    var s = (hole + 1) & mask
    while (stamps(s) == live) {
      // An entry may fill the hole unless its home slot lies cyclically in
      // (hole, s]: moving it before its home would hide it from `find`.
      val home = slot(keys(s), mask)
      val stays = if (hole <= s) hole < home && home <= s else hole < home || home <= s
      if (!stays) {
        keys(hole) = keys(s); vals(hole) = vals(s)
        hole = s
      }
      s = (s + 1) & mask
    }
    stamps(hole) = live - 1
    n -= 1
  }

  def clear(): Unit = {
    n = 0
    if (live == Int.MaxValue) { java.util.Arrays.fill(stamps, 0); live = 1 }
    else live += 1
  }

  private def grow(): Unit = {
    val (oldKeys, oldVals, oldStamps, oldLive) = (keys, vals, stamps, live)
    keys = new Array[Long](oldKeys.length * 2)
    vals = new Array[Double](oldKeys.length * 2)
    stamps = new Array[Int](oldKeys.length * 2)
    live = 1
    n = 0
    var k = 0
    while (k < oldKeys.length) {
      if (oldStamps(k) == oldLive) update(oldKeys(k), oldVals(k))
      k += 1
    }
  }

  private def slot(key: Long, mask: Int): Int = {
    val h = key * 0x9e3779b97f4a7c15L
    (h ^ (h >>> 32)).toInt & mask
  }
}
