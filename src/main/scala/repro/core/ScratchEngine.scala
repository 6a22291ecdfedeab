package repro.core

import scala.collection.mutable
import repro.graph.BatchDelta

/** SCRATCH as an [[Engine]]: no differences, a full recompute per batch. */
final class ScratchEngine(val spec: IFESpec) extends Engine {
  private var states = Array.emptyDoubleArray
  def initialRun(): Unit = states = ScratchEngine.states(spec)
  def absorb(delta: BatchDelta): Unit = initialRun()
  def currentStates(): Array[Double] = states.clone()
  val memoryBytes, storedDiffCount, droppedCount, recomputeCount, jDiffCount = 0L
}

/** Non-incremental execution of an IFE dataflow — the paper's SCRATCH
  * baseline (§6.1.3): "an IFE-like label propagation algorithm ... identical
  * to what is referred to as the 'incremental' fixed point algorithm in the
  * original Differential Dataflow paper", i.e. level-synchronous evaluation
  * where only nodes whose inputs changed in the previous level are
  * re-evaluated.
  */
object ScratchEngine {

  /** Final states plus the number of IFE levels executed and, when
    * requested, the per-level change trace (used to validate VDC/JOD).
    */
  final case class Result(states: Array[Double], iterations: Int,
                          trace: IndexedSeq[Map[Int, Double]])

  /** Run `spec` to fixpoint (or exactly `spec.maxIters` levels when
    * `spec.fixedIters`). `withTrace` records the (node → new state) changes
    * at each level, level 0 being the non-INF initial states.
    */
  def run(spec: IFESpec, withTrace: Boolean = false): Result = {
    val n = spec.view.numNodes
    val prev = new Array[Double](n)
    var node = 0
    while (node < n) { prev(node) = spec.init(node); node += 1 }

    val trace = if (withTrace) mutable.ArrayBuffer[Map[Int, Double]](
      (0 until n).flatMap(v => if (prev(v) != Queries.INF) Some(v -> prev(v)) else None).toMap
    ) else null

    // Level-1 candidates: out-neighbours of every node that can contribute.
    // Fixed-iteration computations (PageRank) re-evaluate every node at
    // every level — even an in-degree-0 node changes (1.0 → 0.15).
    var frontier: mutable.Set[Int] = mutable.Set.empty
    node = 0
    while (node < n) {
      if (spec.fixedIters) frontier += node
      else if (prev(node) != Queries.INF) frontier ++= spec.view.outNodes(node)
      node += 1
    }

    val states = prev
    val recompute = new Aggregation(spec) { protected def prev(w: Int): Double = states(w) }
    var iter = 0
    var continue = frontier.nonEmpty
    while (continue && iter < spec.maxIters) {
      iter += 1
      val changes = mutable.ArrayBuffer[(Int, Double)]()
      frontier.foreach { v =>
        val nv = recompute(v)
        if (!spec.same(nv, prev(v))) changes += ((v, nv))
      }
      if (withTrace) trace += changes.toMap
      val next = mutable.Set.empty[Int]
      changes.foreach { case (v, nv) =>
        prev(v) = nv
        next ++= spec.view.outNodes(v)
      }
      frontier = if (spec.fixedIters) frontier else next
      continue = if (spec.fixedIters) iter < spec.maxIters else changes.nonEmpty && next.nonEmpty
    }
    Result(prev, iter, if (withTrace) trace.toIndexedSeq else IndexedSeq.empty)
  }

  /** Convenience: final states only. */
  def states(spec: IFESpec): Array[Double] = run(spec).states
}
