package repro.spark

import repro.SparkSpec
import repro.core._
import repro.graph._

/** Fleet execution must produce exactly the states a local sequential run
  * produces for each query — distribution must not change semantics.
  */
class QueryFleetSpec extends SparkSpec {

  private def localChecksum(numVertices: Int, initial: Seq[(Int, Int, Int, Byte)],
                            batches: Seq[Seq[EdgeUpdate]], source: Int): Double = {
    val g = DynamicGraph.fromEdges(numVertices, initial)
    val e = new Jod(Queries.sssp(g, source))
    e.initialRun()
    batches.foreach(e.applyBatch)
    val st = e.currentStates()
    st.indices.collect { case i if !st(i).isInfinite => st(i) * (i % 97 + 1) }.sum
  }

  test("fleet results equal local per-query runs (plain JOD)") {
    val data = Datasets.load(spark, Datasets.patents(weighted = true))
    val batches = Datasets.batches(data.inserts.take(10), 1)
    val sources = Seq(0, 1, 2, 3)
    val results = QueryFleet.run(spark, data.numVertices, data.initial, batches, sources,
      (g, s) => Queries.sssp(g, s))
    assert(results.map(_.source).toSet == sources.toSet)
    results.foreach { r =>
      val exp = localChecksum(data.numVertices, data.initial, batches, r.source)
      assert(math.abs(r.checksum - exp) < 1e-6, s"source ${r.source}")
      assert(r.memBytes > 0 && r.storedDiffs > 0)
    }
  }

  test("fleet with Det-Drop reports drops and remains correct vs scratch") {
    val data = Datasets.load(spark, Datasets.patents(weighted = false))
    val batches = Datasets.batches(data.inserts.take(6), 2)
    val results = QueryFleet.run(spark, data.numVertices, data.initial, batches, Seq(0, 5),
      (g, s) => Queries.khop(g, s, 5), EngineKind.DetDrop(0.5, degreeBased = true))
    results.foreach { r =>
      // recompute the reference states from scratch on the final graph
      val g = DynamicGraph.fromEdges(data.numVertices, data.initial)
      batches.foreach(g.apply)
      val st = ScratchEngine.states(Queries.khop(g, r.source, 5))
      val exp = st.indices.collect { case i if !st(i).isInfinite => st(i) * (i % 97 + 1) }.sum
      assert(math.abs(r.checksum - exp) < 1e-6, s"source ${r.source}")
    }
  }
}
