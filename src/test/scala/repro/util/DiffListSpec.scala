package repro.util

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** DiffList (the per-vertex sorted (iteration, state) index of Appendix C)
  * is checked against a TreeMap reference model.
  */
class DiffListSpec extends AnyFunSuite {

  test("behaves like a sorted map under random put/remove (randomized property)") {
    for (trial <- 0 until 80) {
      val rnd = new Random(trial)
      val ops = List.fill(rnd.nextInt(120))(
        (rnd.nextInt(3), rnd.nextInt(31), (rnd.nextInt(201) - 100).toDouble))
      val dl = new DiffList
      val ref = scala.collection.mutable.TreeMap.empty[Int, Double]
      ops.foreach {
        case (0, i, v) => dl.put(i, v); ref(i) = v
        case (1, i, _) =>
          val was = ref.remove(i).isDefined
          assert(dl.remove(i) == was)
        case (_, i, v) => dl.put(i, v); dl.put(i, v); ref(i) = v
      }
      assert(dl.size == ref.size)
      assert(dl.entries == ref.toSeq)
      for (probe <- -1 to 35) {
        val expFloor = ref.rangeTo(probe).lastOption
        assert(dl.floorIter(probe) == expFloor.map(_._1).getOrElse(-1))
        assert(dl.valueAt(probe, Double.NaN).equals(expFloor.map(_._2).getOrElse(Double.NaN)))
        assert((dl.floorIndex(probe) + 1 until dl.size).map(dl.iterAt) == ref.rangeFrom(probe + 1).keys.toSeq)
      }
      assert(dl.maxIter == ref.keys.maxOption.getOrElse(-1))
    }
  }

  test("valueAt default is returned only when no floor entry exists") {
    val dl = new DiffList
    dl.put(5, 2.5)
    assert(dl.valueAt(4, -1.0) == -1.0)
    assert(dl.valueAt(5, -1.0) == 2.5)
    assert(dl.valueAt(6, -1.0) == 2.5)
  }

  test("exactValue distinguishes floor hits from exact hits") {
    val dl = new DiffList
    dl.put(3, 7.0); dl.put(10, 9.0)
    assert(dl.exactValue(3) == 7.0)
    assert(dl.exactValue(5).isNaN) // floor is 3, not exact
    assert(dl.valueAt(5, Double.NaN) == 7.0)
    assert(dl.exactValue(10) == 9.0)
  }

  test("put replaces in place without growing") {
    val dl = new DiffList
    dl.put(1, 1.0); dl.put(1, 2.0); dl.put(1, 3.0)
    assert(dl.size == 1 && dl.exactValue(1) == 3.0)
  }

  test("insertion keeps order regardless of arrival order") {
    val dl = new DiffList
    Seq(9, 1, 5, 3, 7, 2).foreach(i => dl.put(i, i.toDouble))
    assert(dl.entries.map(_._1) == Seq(1, 2, 3, 5, 7, 9))
  }

  test("empty list conventions") {
    val dl = new DiffList
    assert(dl.isEmpty && dl.size == 0 && dl.maxIter == -1)
    assert(dl.floorIter(100) == -1 && dl.valueAt(5, 42.0) == 42.0)
    assert(!dl.remove(3))
    assert(dl.floorIndex(0) + 1 == dl.size)
  }

  test("the shared empty list reads as empty and refuses writes") {
    val dl = DiffList.Empty
    assert(dl.isEmpty && dl.maxIter == -1 && dl.valueAt(5, 42.0) == 42.0)
    assert(!dl.remove(3) && dl.entries.isEmpty)
    intercept[UnsupportedOperationException](dl.put(1, 1.0))
    assert(dl.isEmpty)
  }
}
