package repro.util

/** Per-vertex sorted list of positive differences (iteration, state), the
  * eager-merged one-dimensional representation of paper §4.2 / Appendix C:
  * "a hash table where the keys are vertex IDs and the value is a list of
  * pairs (i, s_v^i) sorted by i ... we find the latest available iteration
  * i* <= i using binary search."
  *
  * Negative multiplicities are implicit (a later entry supersedes the
  * earlier one), so an absolute state per changed iteration is all that is
  * stored.
  */
final class DiffList private (capacity: Int) {
  private var iters: Array[Int] = new Array[Int](capacity)
  private var vals: Array[Double] = new Array[Double](capacity)
  private var n: Int = 0

  def this() = this(2)

  /** Number of stored differences. */
  def size: Int = n

  def isEmpty: Boolean = n == 0

  /** Binary search: index of the greatest stored iteration <= i, or -1. */
  def floorIndex(i: Int): Int = {
    var lo = 0; var hi = n - 1; var res = -1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (iters(mid) <= i) { res = mid; lo = mid + 1 } else hi = mid - 1
    }
    res
  }

  /** Latest stored iteration <= i, or -1 if none. */
  def floorIter(i: Int): Int = {
    val idx = floorIndex(i)
    if (idx < 0) -1 else iters(idx)
  }

  /** State at the latest stored iteration <= i; `default` if none. */
  def valueAt(i: Int, default: Double): Double = {
    val idx = floorIndex(i)
    if (idx < 0) default else vals(idx)
  }

  /** Exact-match lookup: the state stored at exactly iteration i, or NaN. */
  def exactValue(i: Int): Double = {
    val idx = floorIndex(i)
    if (idx >= 0 && iters(idx) == i) vals(idx) else Double.NaN
  }

  /** Insert or replace the difference at iteration i. */
  def put(i: Int, v: Double): Unit = {
    val idx = floorIndex(i)
    if (idx >= 0 && iters(idx) == i) { vals(idx) = v; return }
    if (n == iters.length) {
      if (n == 0) throw new UnsupportedOperationException("DiffList.Empty is shared and read-only")
      iters = java.util.Arrays.copyOf(iters, n * 2)
      vals = java.util.Arrays.copyOf(vals, n * 2)
    }
    val at = idx + 1 // insertion point keeps the array sorted
    System.arraycopy(iters, at, iters, at + 1, n - at)
    System.arraycopy(vals, at, vals, at + 1, n - at)
    iters(at) = i; vals(at) = v; n += 1
  }

  /** Remove the difference at exactly iteration i, if present. */
  def remove(i: Int): Boolean = {
    val idx = floorIndex(i)
    if (idx < 0 || iters(idx) != i) return false
    System.arraycopy(iters, idx + 1, iters, idx, n - idx - 1)
    System.arraycopy(vals, idx + 1, vals, idx, n - idx - 1)
    n -= 1
    true
  }

  /** The iteration stored at index k (0 <= k < size), ascending in k. The
    * upper-bound rule walks the iterations above i as indices
    * `floorIndex(i) + 1 until size`.
    */
  def iterAt(k: Int): Int = iters(k)

  /** All (iteration, state) pairs, ascending by iteration. */
  def entries: IndexedSeq[(Int, Double)] =
    (0 until n).map(k => (iters(k), vals(k)))

  /** Largest stored iteration, or -1 if empty. */
  def maxIter: Int = if (n == 0) -1 else iters(n - 1)
}

object DiffList {
  /** The shared, read-only empty list: a node without differences points
    * here until its first stored write, so an engine pays one reference per
    * node, not a list. `put` on it throws; every read sees an empty list.
    */
  val Empty: DiffList = new DiffList(0)
}
