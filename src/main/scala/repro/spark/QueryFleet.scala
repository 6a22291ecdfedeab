package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.{DynamicGraph, EdgeUpdate}

/** Distribute a fleet of concurrent continuous queries over the Spark
  * cluster. The paper's scalability axis (Table 1, Fig 7) is "how many
  * concurrently-maintained queries fit"; the queries are independent, so a
  * GDBMS embedded in Spark parallelizes them as tasks: the (broadcast)
  * graph + update stream is shared, each partition keeps one graph for its
  * queries, and each query owns its differential state.
  */
object QueryFleet {

  /** Per-query outcome: source, time, differential memory, checksum of the
    * final states (for cross-checking against a local run).
    */
  final case class QueryResult(source: Int, initialMs: Double, batchesMs: Double,
                               memBytes: Long, storedDiffs: Long, checksum: Double)

  /** Maintain one query of configuration `kind` per source, across the
    * cluster: each partition builds one graph for its queries, applies each
    * batch to it once, and times every query's maintenance on its own.
    *
    * @param mkSpec (graph, source) => spec, executed on executors
    */
  def run(spark: SparkSession,
          numVertices: Int,
          initial: Seq[(Int, Int, Int, Byte)],
          batches: Seq[Seq[EdgeUpdate]],
          sources: Seq[Int],
          mkSpec: (DynamicGraph, Int) => IFESpec,
          kind: EngineKind = EngineKind.Jod): Seq[QueryResult] = {
    val sc = spark.sparkContext
    val bInitial = sc.broadcast(initial.toArray)
    val bBatches = sc.broadcast(batches.map(_.toArray).toArray)
    sc.parallelize(sources.zipWithIndex, math.min(sources.size, sc.defaultParallelism))
      .mapPartitions { queries =>
        val g = DynamicGraph.fromEdges(numVertices, bInitial.value.toSeq)
        val fleet = queries.toArray
        val engines = fleet.map { case (source, q) => EngineKind.build(kind, mkSpec(g, source), EngineKind.querySeed(q)) }
        val initialNs = engines.map(e => timed(e.initialRun()))
        val batchesNs = new Array[Long](engines.length)
        bBatches.value.foreach { b =>
          val delta = g.apply(b.toSeq)
          engines.indices.foreach(i => batchesNs(i) += timed(engines(i).absorb(delta)))
        }
        fleet.indices.iterator.map { i =>
          val states = engines(i).currentStates()
          val checksum = states.indices.collect { case v if !states(v).isInfinite => states(v) * (v % 97 + 1) }.sum
          QueryResult(fleet(i)._1, initialNs(i) / 1e6, batchesNs(i) / 1e6,
            engines(i).memoryBytes, engines(i).storedDiffCount, checksum)
        }
      }
      .collect()
      .toSeq
  }

  private def timed(body: => Unit): Long = {
    val t0 = System.nanoTime()
    body
    System.nanoTime() - t0
  }
}
