package repro.harness

import repro.core._
import repro.graph.{DynamicGraph, EdgeUpdate}

/** Outcome of maintaining `queries` concurrent queries over a batch stream.
  *
  * @param oomAtBatch index of the batch at which the memory budget was
  *                   exceeded (-1 = completed within budget)
  */
final case class RunResult(config: String, queries: Int,
                           initialMs: Double, batchesMs: Double,
                           memBytes: Long, storedDiffs: Long, droppedDiffs: Long,
                           recomputes: Long, jDiffs: Long, oomAtBatch: Int) {
  def totalMs: Double = initialMs + batchesMs
  def completed: Boolean = oomAtBatch < 0
}

/** Drives a (engine kind × query set × update stream) experiment the way
  * §6.1 describes: load the initial graph, register the queries, then apply
  * update batches, reporting single-threaded maintenance time and the
  * memory-model byte count of all differential state. A `budgetBytes`
  * limit turns into a deterministic "OOM" once the accounted bytes exceed
  * it (Table 1 / Fig 7 semantics).
  */
object Workload {
  private def now(): Long = System.nanoTime()

  /** Run one configuration: `numQueries` engines over one graph, which
    * applies each batch once for all of them.
    *
    * @param mkSpec query factory: (the shared graph, query index) => spec
    */
  def run(kind: EngineKind,
          numVertices: Int,
          initial: Seq[(Int, Int, Int, Byte)],
          batches: Seq[Seq[EdgeUpdate]],
          numQueries: Int,
          mkSpec: (DynamicGraph, Int) => IFESpec,
          budgetBytes: Option[Long] = None): RunResult = {
    val g = DynamicGraph.fromEdges(numVertices, initial)
    val engines = (0 until numQueries).map(q => EngineKind.build(kind, mkSpec(g, q), EngineKind.querySeed(q)))
    def total(count: Engine => Long): Long = engines.iterator.map(count).sum
    def overBudget: Boolean = budgetBytes.exists(total(_.memoryBytes) > _)

    var t0 = now()
    engines.foreach(_.initialRun())
    val initialMs = (now() - t0) / 1e6
    var oom = if (overBudget) 0 else -1
    t0 = now()
    batches.iterator.zipWithIndex.takeWhile(_ => oom < 0).foreach { case (b, bi) =>
      val delta = g.apply(b)
      engines.foreach(_.absorb(delta))
      if (overBudget) oom = bi
    }
    RunResult(kind.label, numQueries, initialMs, (now() - t0) / 1e6,
      total(_.memoryBytes), total(_.storedDiffCount), total(_.droppedCount),
      total(_.recomputeCount), total(_.jDiffCount), oom)
  }

  /** Format a RunResult as a fixed-width report row. */
  def row(r: RunResult): String =
    f"${r.config}%-28s q=${r.queries}%-3d init=${r.initialMs}%9.1fms " +
      f"batches=${r.batchesMs}%9.1fms mem=${r.memBytes / 1024.0}%10.1fKB " +
      f"diffs=${r.storedDiffs}%-8d dropped=${r.droppedDiffs}%-8d recomp=${r.recomputes}%-8d " +
      (if (r.completed) "ok" else s"OOM@batch${r.oomAtBatch}")
}
