package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** IFE evaluation as iterative Catalyst DataFrame programs — the
  * distributed form of the Scratch baseline, plus insert-only maintenance
  * of SSSP from a seeded frontier. Each IFE iteration is one join-aggregate
  * round: frontier ⋈ edges → candidate states → min-merge, repeated to
  * fixpoint. Lineage is truncated every round with `localCheckpoint` so
  * plans stay bounded.
  *
  * Input edge frames use columns (src, dst, weight, label); results are
  * (v, dist) with `dist` the query's vertex state.
  */
object SparkIFE {
  /** Run min-aggregation IFE from the states `dist` and the candidate
    * (v, dist) rows `cand`: each round keeps the candidates that improve a
    * state, merges them in, and relaxes the next round's candidates from
    * them (`relax` maps a frontier of (v, dist) rows to candidate rows),
    * until no state improves.
    */
  private def minLoop(dist0: DataFrame, cand0: DataFrame,
                      relax: DataFrame => DataFrame, maxIters: Int): DataFrame = {
    var dist = dist0
    var cand = cand0
    var i = 0
    var done = false
    while (!done && i < maxIters) {
      i += 1
      // improvements: candidates strictly better than the current state
      val improved = cand
        .groupBy("v").agg(min("dist") as "dist")
        .join(dist.withColumnRenamed("dist", "old"), Seq("v"), "left_outer")
        .where(col("old").isNull || col("dist") < col("old"))
        .select(col("v"), col("dist"))
        .localCheckpoint(true)
      if (improved.isEmpty) done = true
      else {
        dist = dist.unionByName(improved)
          .groupBy("v").agg(min("dist") as "dist")
          .localCheckpoint(true)
        cand = relax(improved)
      }
    }
    dist
  }

  /** Min-aggregation IFE from the initial states `init`. */
  private def fromScratch(init: DataFrame, relax: DataFrame => DataFrame, maxIters: Int): DataFrame = {
    val dist = init.localCheckpoint(true)
    minLoop(dist, relax(dist), relax, maxIters)
  }

  private def ssspRelax(edges: DataFrame): DataFrame => DataFrame =
    f => f.join(edges, f("v") === edges("src"))
      .select(edges("dst") as "v", (f("dist") + edges("weight")) as "dist")

  /** SSSP distances from `source` over weighted edges. */
  def sssp(spark: SparkSession, edges: DataFrame, source: Int, maxIters: Int = 10000): DataFrame = {
    import spark.implicits._
    fromScratch(Seq((source, 0.0)).toDF("v", "dist"), ssspRelax(edges), maxIters)
  }

  /** Maintain SSSP distances `prev` (v, dist) after `newEdges` were
    * inserted into `edges`: the first round relaxes only the inserted edges,
    * so the loop touches only the affected neighbourhood (DC's localization
    * property, §3.3). Deletions raise states, which this monotone loop
    * cannot express; they run through the local JOD/VDC engines.
    */
  def maintainSssp(edges: DataFrame, newEdges: DataFrame, prev: DataFrame,
                   maxIters: Int = 10000): DataFrame =
    minLoop(prev, ssspRelax(newEdges)(prev), ssspRelax(edges), maxIters)

  /** K-hop: vertices within k hops of `source`, with hop distance. */
  def khop(spark: SparkSession, edges: DataFrame, source: Int, k: Int): DataFrame = {
    import spark.implicits._
    fromScratch(Seq((source, 0.0)).toDF("v", "dist"),
      f => f.join(edges, f("v") === edges("src"))
        .where(f("dist") + 1 <= k)
        .select(edges("dst") as "v", (f("dist") + lit(1.0)) as "dist"),
      maxIters = k + 1)
  }

  /** WCC: minimum-vertex-id label propagation over the undirected closure.
    * Returns (v, dist) where dist is the component's minimum vertex id.
    */
  def wcc(spark: SparkSession, edges: DataFrame, maxIters: Int = 10000): DataFrame = {
    val sym = edges.select(col("src"), col("dst"))
      .unionByName(edges.select(col("dst") as "src", col("src") as "dst"))
    val init = sym.select(col("src") as "v")
      .unionByName(sym.select(col("dst") as "v"))
      .distinct()
      .select(col("v"), col("v").cast("double") as "dist")
    fromScratch(init,
      f => f.join(sym, f("v") === sym("src")).select(sym("dst") as "v", f("dist")),
      maxIters)
  }

  /** RPQ via the product construction: `trans` rows are (q, lbl, nq);
    * returns the distinct base vertices reachable from `source` in an
    * accepting automaton state.
    */
  def rpq(spark: SparkSession, edges: DataFrame, source: Int,
          trans: DataFrame, accepting: Seq[Int], maxIters: Int = 10000): DataFrame = {
    import spark.implicits._
    val nq = 64 // automaton states are tiny; pack node = v * nq + q
    val init = Seq((source * nq, 0.0)).toDF("v", "dist") // start state q0 = 0
    val dist = fromScratch(init,
      f => f
        .withColumn("bv", (f("v") / nq).cast("int"))
        .withColumn("q", f("v") % nq)
        .join(edges, col("bv") === edges("src"))
        .join(trans, col("q") === trans("q_from") && edges("label") === trans("lbl"))
        .select((edges("dst") * nq + trans("q_to")) as "v", (f("dist") + lit(1.0)) as "dist"),
      maxIters)
    dist
      .withColumn("q", col("v") % nq)
      .where(col("q").isin(accepting.map(_.toLong): _*))
      .select((col("v") / nq).cast("int") as "v")
      .distinct()
  }
}
