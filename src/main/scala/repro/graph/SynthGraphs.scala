package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic graph generators, built as Catalyst DataFrame programs.
  * Deterministic in (parameters, seed): the generators use a fixed
  * partition count so `rand(seed)` draws are stable across machines and
  * runs, which lets the DuckDB oracle and the local engines see
  * byte-identical edge lists.
  *
  * Power-law degree skew is produced with an inverse-CDF zipf draw
  * (rank ≈ (1/u)^(1/α)).
  */
object SynthGraphs {
  /** Fixed partitioning so rand(seed) is reproducible regardless of cores. */
  private val Parts = 8

  /** A power-law-skewed vertex id in [0, nV): dst = ⌊nV · u^β⌋ for uniform
    * u, giving density ∝ x^(1/β − 1) — low ids become in-degree hubs
    * (expected degree of the top vertex ≈ E · nV^(−1/β)) while every
    * vertex keeps Θ(E/nV) expected edges, so traversals cover the graph.
    * β = `alpha` > 1 controls the skew; this bounded-support draw replaces
    * an unbounded inverse-CDF zipf, which concentrates essentially all
    * mass on a handful of ids at laptop scale.
    */
  private def zipfVertex(u: Column, nV: Int, alpha: Double): Column =
    least(lit(nV - 1), greatest(lit(0), (pow(u, lit(alpha)) * nV).cast(IntegerType)))

  /** A uniform vertex id in [0, nV). */
  private def uniformVertex(u: Column, nV: Int): Column =
    least(lit(nV - 1), (u * nV).cast(IntegerType))

  /** Generate a directed edge DataFrame (src, dst, weight, label).
    *
    * @param nV        number of vertices
    * @param nE        number of edges
    * @param alpha     zipf exponent for endpoint skew; <= 0 means uniform
    * @param weighted  weights drawn uniformly from [1, 10] (paper §6.1.1),
    *                  otherwise weight 1
    * @param numLabels number of distinct edge labels (1 = unlabeled / 0)
    */
  def edges(spark: SparkSession, nV: Int, nE: Long, alpha: Double,
            weighted: Boolean, numLabels: Int = 1, seed: Long = 7L): DataFrame = {
    val base = spark.range(0, nE, 1, Parts)
    // Sources are uniform (broad out-coverage, so traversals reach far);
    // destinations are zipf-skewed (in-degree hubs — the degree-policy and
    // JOD-overhead experiments key off degree skew).
    val src = uniformVertex(rand(seed), nV)
    val dst =
      if (alpha > 0) zipfVertex(rand(seed + 1), nV, alpha) else uniformVertex(rand(seed + 1), nV)
    val w =
      if (weighted) (rand(seed + 2) * 10 + 1).cast(IntegerType) else lit(1)
    val l =
      if (numLabels > 1) (rand(seed + 3) * numLabels).cast(IntegerType) else lit(0)
    base.select(src as "src", dst as "dst", w as "weight", l as "label")
      // remap (rather than drop) self-loops so |E| stays exact
      .withColumn("dst",
        when(col("src") === col("dst"), (col("dst") + 1) % nV).otherwise(col("dst")))
  }

  /** Densify: append `extra` uniform-random edges (the Fig 5 device:
    * "we increase the average degree by adding random edges").
    */
  def densify(spark: SparkSession, df: DataFrame, nV: Int, extra: Long,
              weighted: Boolean, label: Int = 0, seed: Long = 99L): DataFrame = {
    val add = spark.range(0, extra, 1, Parts).select(
      uniformVertex(rand(seed), nV) as "src",
      uniformVertex(rand(seed + 1), nV) as "dst",
      (if (weighted) (rand(seed + 2) * 10 + 1).cast(IntegerType) else lit(1)) as "weight",
      lit(label) as "label",
    ).withColumn("dst",
      when(col("src") === col("dst"), (col("dst") + 1) % nV).otherwise(col("dst")))
    df.unionByName(add)
  }

  /** Collect an edge DataFrame into local (src, dst, weight, label) tuples,
    * in a deterministic order.
    */
  def collectEdges(df: DataFrame): Vector[(Int, Int, Int, Byte)] =
    df.select("src", "dst", "weight", "label")
      .collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getInt(3).toByte))
      .toVector

  /** Dataset statistics as a DataFrame — the Table 5 columns: |E|, |V|
    * (vertices incident to at least one edge), max degree, average degree,
    * average in-degree over vertices with in-edges.
    */
  def stats(spark: SparkSession, df: DataFrame): DataFrame = {
    df.createOrReplaceTempView("g_stats_edges")
    spark.sql(
      """
      WITH degs AS (
        SELECT v, SUM(outd) AS outd, SUM(ind) AS ind FROM (
          SELECT src AS v, COUNT(*) AS outd, 0 AS ind FROM g_stats_edges GROUP BY src
          UNION ALL
          SELECT dst AS v, 0 AS outd, COUNT(*) AS ind FROM g_stats_edges GROUP BY dst
        ) GROUP BY v
      )
      SELECT
        (SELECT COUNT(*) FROM g_stats_edges)                 AS num_edges,
        COUNT(*)                                             AS num_vertices,
        MAX(outd + ind)                                      AS max_degree,
        ROUND(AVG(outd), 1)                                  AS avg_degree,
        ROUND(AVG(CASE WHEN ind > 0 THEN ind END), 1)        AS avg_in_degree
      FROM degs
      """)
  }

  /** The degree value at `pct` percentile, computed with Catalyst —
    * the τ_max input of the Degree drop policy (§5.2.1).
    */
  def degreePercentile(spark: SparkSession, df: DataFrame, pct: Double): Int = {
    df.createOrReplaceTempView("g_pct_edges")
    spark.sql(
      s"""
      SELECT CAST(percentile_approx(deg, ${pct / 100.0}) AS INT) AS p FROM (
        SELECT v, COUNT(*) AS deg FROM (
          SELECT src AS v FROM g_pct_edges UNION ALL SELECT dst AS v FROM g_pct_edges
        ) GROUP BY v
      )
      """).collect()(0).getInt(0)
  }
}
