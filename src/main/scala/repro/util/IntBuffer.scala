package repro.util

/** A growable list of unboxed ints, reused across batches via `clear`. */
final class IntBuffer {
  private var elems = new Array[Int](16)
  private var n = 0

  def size: Int = n
  def apply(k: Int): Int = elems(k)

  def add(x: Int): Unit = {
    if (n == elems.length) elems = java.util.Arrays.copyOf(elems, n * 2)
    elems(n) = x
    n += 1
  }

  def clear(): Unit = n = 0
}
