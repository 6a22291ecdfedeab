package repro.util

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import scala.util.Random

/** The engines' open-addressing tables against `mutable.HashMap` models.
  * Keys come from a small range, so probe chains collide, wrap around the
  * table and grow it; removals shift chains back and clears reuse it.
  */
class PrimitiveTablesSpec extends AnyFunSuite {

  test("LongDoubleMap behaves like a map under random update/remove/clear (randomized property)") {
    for (trial <- 0 until 60) {
      val rnd = new Random(trial)
      val map = new LongDoubleMap
      val ref = mutable.HashMap.empty[Long, Double]
      for (_ <- 0 until 400) {
        val key = rnd.nextInt(64).toLong << rnd.nextInt(3) * 20
        rnd.nextInt(10) match {
          case 0 => map.clear(); ref.clear()
          case 1 | 2 | 3 => map.remove(key); ref.remove(key)
          case _ => val v = rnd.nextDouble(); map(key) = v; ref(key) = v
        }
        for (probe <- ref.keys) assert(map.contains(probe) && map(probe) == ref(probe), s"trial $trial key $probe")
        assert(map.contains(key) == ref.contains(key))
      }
    }
  }

  test("Multiset consolidates equal pairs in first-insertion order (randomized property)") {
    for (trial <- 0 until 60) {
      val rnd = new Random(trial)
      val ms = new Multiset
      for (_ <- 0 until 5) {
        ms.clear()
        val ref = mutable.LinkedHashMap.empty[(Int, Double), Int]
        for (_ <- 0 until rnd.nextInt(200)) {
          val (key, value, m) = (rnd.nextInt(8), rnd.nextInt(8).toDouble, rnd.nextInt(5) - 2)
          ms.add(key, value, m)
          ref((key, value)) = ref.getOrElse((key, value), 0) + m
        }
        assert((0 until ms.size).map(k => ((ms.key(k), ms.value(k)), ms.mult(k))) == ref.toSeq)
        ms.negate()
        assert((0 until ms.size).map(ms.mult) == ref.values.map(-_).toSeq)
      }
    }
    val ms = new Multiset
    ms.add(0, 0.0, 1); ms.add(0, -0.0, 1)
    assert(ms.size == 1 && ms.mult(0) == 2)
  }
}
