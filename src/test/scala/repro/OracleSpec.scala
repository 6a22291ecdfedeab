package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, count}
import repro.graph.SynthGraphs

/** The DuckDB oracle must catch wrong results, not just bless everything,
  * and must agree with Spark on real aggregations and joins over an edge
  * table from the graph generators.
  */
class OracleSpec extends SparkSpec {

  private lazy val edges: DataFrame =
    SynthGraphs.edges(spark, nV = 200, nE = 1000, alpha = 1.8, weighted = true, seed = 3L).cache()

  private val outDegreeSql = "SELECT src, COUNT(*) AS cnt FROM edges GROUP BY src"

  test("assertEquivalent passes on a matching aggregate") {
    val outDegree = edges.groupBy("src").agg(count("*") as "cnt")
    Oracle.assertEquivalent(outDegree, outDegreeSql, "edges" -> edges)
  }

  test("assertEquivalent catches a wrong result") {
    val wrong = edges.groupBy("src").agg((count("*") + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, outDegreeSql, "edges" -> edges)
    }
  }

  test("assertEquivalent rejects mismatched column sets") {
    val s = spark
    import s.implicits._
    val df = Seq((1, 2)).toDF("a", "b")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT CAST(a AS INT) AS a FROM t", "t" -> df)
    }
  }

  test("join + aggregate against the oracle (edges x edges)") {
    // Two-hop paths per source: edges joined with edges on a.dst = b.src.
    val a = edges.as("a")
    val b = edges.as("b")
    val q = a.join(b, col("a.dst") === col("b.src"))
      .groupBy(col("a.src") as "src")
      .agg(count("*") as "paths")
    Oracle.assertEquivalent(q,
      """SELECT a.src AS src, COUNT(*) AS paths
         FROM edges a JOIN edges b ON CAST(a.dst AS INT) = CAST(b.src AS INT)
         GROUP BY a.src""",
      "edges" -> edges)
  }
}
