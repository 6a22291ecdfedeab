package repro.spark

import scala.util.Random
import repro.SparkSpec
import repro.core._
import repro.graph._

/** The DataFrame IFE implementations must agree with the local engines
  * (which are themselves oracle-checked against DuckDB).
  */
class SparkIFESpec extends SparkSpec {
  import Queries.INF

  private def randomGraph(seed: Int, nV: Int, nE: Int, weighted: Boolean, labels: Int = 1): DynamicGraph = {
    val rnd = new Random(seed)
    val g = new DynamicGraph(nV)
    (0 until nE).foreach { _ =>
      val s = rnd.nextInt(nV); var d = rnd.nextInt(nV); if (d == s) d = (d + 1) % nV
      g.addEdge(s, d, if (weighted) 1 + rnd.nextInt(10) else 1, rnd.nextInt(labels).toByte)
    }
    g
  }

  private def edgesDf(g: DynamicGraph) = {
    val s = spark
    import s.implicits._
    g.edgeList.map { case (a, b, w, l) => (a, b, w, l.toInt) }.toDF("src", "dst", "weight", "label")
  }

  private def asMap(df: org.apache.spark.sql.DataFrame): Map[Int, Double] =
    df.collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap

  test("SparkIFE.sssp equals the local engine") {
    val g = randomGraph(1, 30, 90, weighted = true)
    val local = ScratchEngine.states(Queries.sssp(g, 0))
    val dist = asMap(SparkIFE.sssp(spark, edgesDf(g), 0).select("v", "dist"))
    (0 until 30).foreach { v =>
      if (local(v) == INF) assert(!dist.contains(v))
      else assert(dist(v) == local(v), s"vertex $v")
    }
  }

  test("SparkIFE.khop equals the local engine") {
    val g = randomGraph(2, 30, 70, weighted = false)
    val local = ScratchEngine.states(Queries.khop(g, 0, 3))
    val dist = asMap(SparkIFE.khop(spark, edgesDf(g), 0, 3).select("v", "dist"))
    (0 until 30).foreach { v =>
      if (local(v) == INF) assert(!dist.contains(v))
      else assert(dist(v) == local(v), s"vertex $v")
    }
  }

  test("SparkIFE.wcc equals the local engine on incident vertices") {
    val g = randomGraph(3, 35, 40, weighted = false)
    val local = ScratchEngine.states(Queries.wcc(g))
    val comp = asMap(SparkIFE.wcc(spark, edgesDf(g)).select("v", "dist"))
    (0 until 35).foreach { v =>
      if (g.degree(v) > 0) assert(comp(v) == local(v), s"vertex $v")
      else assert(!comp.contains(v))
    }
  }

  test("SparkIFE.rpq equals the local product-graph engine") {
    val g = randomGraph(4, 20, 60, weighted = false, labels = 3)
    val m = Automaton.q2(0, 1)
    val spec = Queries.rpq(g, 0, m)
    val states = ScratchEngine.states(spec)
    val pv = spec.view.asInstanceOf[ProductView]
    val expected = (0 until 20)
      .filter(v => m.accepting.exists(q => states(pv.nodeOf(v, q)) != INF)).toSet
    val s = spark
    import s.implicits._
    val trans = m.transitions.map { case (f, l, t) => (f, l, t) }
      .toDF("q_from", "lbl", "q_to")
    val got = SparkIFE.rpq(spark, edgesDf(g), 0, trans, m.accepting.toSeq)
      .collect().map(_.getInt(0)).toSet
    assert(got == expected)
  }

  // Named for the former SparkDeltaIFE object; its warm SSSP maintenance now
  // lives in SparkIFE.maintainSssp.
  test("SparkDeltaIFE warm maintenance equals cold recompute over insert batches") {
    val rnd = new Random(5)
    val g = randomGraph(5, 30, 60, weighted = true)
    var dist = SparkIFE.sssp(spark, edgesDf(g), 0)
    for (_ <- 0 until 3) {
      val batch = Seq.fill(3) {
        val a = rnd.nextInt(30); var b = rnd.nextInt(30); if (b == a) b = (b + 1) % 30
        (a, b, 1 + rnd.nextInt(10), 0)
      }
      val s = spark
      import s.implicits._
      val newDf = batch.toDF("src", "dst", "weight", "label")
      batch.foreach { case (a, b, w, l) => g.addEdge(a, b, w, l.toByte) }
      dist = SparkIFE.maintainSssp(edgesDf(g), newDf, dist)
      val cold = asMap(SparkIFE.sssp(spark, edgesDf(g), 0))
      assert(asMap(dist.select("v", "dist")) == cold)
    }
  }
}
