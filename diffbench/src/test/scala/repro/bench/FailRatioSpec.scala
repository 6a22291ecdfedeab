package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** `fail_ratio` is a gate: a checkpoint whose engine disagrees with
  * `ScratchEngine` must be counted as failed.
  */
class FailRatioSpec extends AnyFunSuite {
  private val w = Workloads("spsp-fleet", smoke = true)
  private val s = BenchFixtures.setup(w)
  private val queries = w.fleet(s.graph, 5L)

  private def registered(): (Runner, Array[Engine]) = {
    val engines = queries.map(q => Engines.build(q.kind, q.spec(s.data.graph()))).toArray
    engines.foreach(_.initialRun())
    (new Runner(w, s, null), engines)
  }

  private def answers(engines: Array[Engine]): Array[Double] =
    engines.indices.map(i => engines(i).answer(queries(i).target)).toArray

  test("a corrupted engine state is counted as a failed checkpoint") {
    val (r, engines) = registered()
    r.check(queries, engines, s.data.graph(), answers(engines))
    assert(r.attempted == engines.length && r.failed == 0)

    // overwrite one stored difference of the first engine with a wrong state
    val jod = Engines.jodOf(engines(0))
    val node = (0 until s.data.numVertices).find(v => jod.diffEntries(v).nonEmpty).get
    val (iter, state) = jod.diffEntries(node).last
    jod.diffs(node).put(iter, state + 1000.0)
    r.check(queries, engines, s.data.graph(), answers(engines))
    assert(r.attempted == 2 * engines.length)
    assert(r.failed == 1)
  }

  test("a wrong answer read at the target is counted as a failed checkpoint") {
    val (r, engines) = registered()
    val read = answers(engines)
    read(1) = if (read(1).isInfinite) 0.0 else read(1) + 1.0
    r.check(queries, engines, s.data.graph(), read)
    assert(r.failed == 1)
  }
}
