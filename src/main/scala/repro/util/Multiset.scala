package repro.util

/** A multiset of (`Long` key, value) pairs with signed `Int` multiplicities, kept
  * in primitive arrays and reused: `add` merges equal pairs through an
  * open-addressing table, and `clear` resets only the slots its entries
  * used. Entries are listed in first-insertion order; an entry whose
  * multiplicity sums to zero stays listed with multiplicity 0. Values
  * compare with `==`, so 0.0 and -0.0 are one value.
  */
final class Multiset {
  private var keys = new Array[Long](8)
  private var vals = new Array[Double](8)
  private var mults = new Array[Int](8)
  /** Table slot of each entry, so `clear` and `rehash` need not search. */
  private var slots = new Array[Int](8)
  /** Entry index + 1 per slot; 0 marks an empty slot. */
  private var table = new Array[Int](16)
  private var n = 0

  /** Number of listed entries, zero-multiplicity ones included. */
  def size: Int = n
  def key(k: Int): Long = keys(k)
  def value(k: Int): Double = vals(k)
  def mult(k: Int): Int = mults(k)

  def add(key: Long, value: Double, m: Int): Unit = {
    val mask = table.length - 1
    var s = hash(key, value) & mask
    var e = table(s)
    while (e != 0) {
      if (keys(e - 1) == key && vals(e - 1) == value) { mults(e - 1) += m; return }
      s = (s + 1) & mask
      e = table(s)
    }
    if (n == keys.length) {
      keys = java.util.Arrays.copyOf(keys, n * 2)
      vals = java.util.Arrays.copyOf(vals, n * 2)
      mults = java.util.Arrays.copyOf(mults, n * 2)
      slots = java.util.Arrays.copyOf(slots, n * 2)
    }
    keys(n) = key; vals(n) = value; mults(n) = m; slots(n) = s
    table(s) = n + 1
    n += 1
    if (2 * n > table.length) rehash(table.length * 2)
  }

  /** Flip the sign of every multiplicity. */
  def negate(): Unit = {
    var k = 0
    while (k < n) { mults(k) = -mults(k); k += 1 }
  }

  def clear(): Unit = {
    var k = 0
    while (k < n) { table(slots(k)) = 0; k += 1 }
    n = 0
  }

  private def rehash(cap: Int): Unit = {
    table = new Array[Int](cap)
    val mask = cap - 1
    var k = 0
    while (k < n) {
      var s = hash(keys(k), vals(k)) & mask
      while (table(s) != 0) s = (s + 1) & mask
      table(s) = k + 1
      slots(k) = s
      k += 1
    }
  }

  private def hash(key: Long, value: Double): Int = {
    // + 0.0 turns -0.0 into 0.0, so the two hash alike as they compare equal
    val h = java.lang.Long.hashCode(key) * 0x9e3779b9 ^ java.lang.Double.hashCode(value + 0.0)
    h ^ (h >>> 16)
  }
}
