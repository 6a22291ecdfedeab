package repro.bench

import repro.core.{DetDroppedVT, DropPolicy, DroppedVT, IFESpec, Jod, ProbDroppedVT, Vdc}
import repro.graph.EdgeUpdate

/** Engine configurations the workloads register (paper §6.1.3). */
sealed trait EngineKind { def label: String }
object EngineKind {
  case object Jod extends EngineKind { val label = "jod" }
  /** JOD + Det-Drop with the Degree policy at drop probability `p`. */
  final case class DetDrop(p: Double, seed: Long) extends EngineKind { val label = "det_drop" }
  /** JOD + Prob-Drop (Bloom filter) with the Degree policy at `p`. */
  final case class ProbDrop(p: Double, seed: Long) extends EngineKind { val label = "prob_drop" }
  /** Vanilla DC with 2-D timestamps, never merged. */
  case object Vdc extends EngineKind { val label = "vdc" }
}

/** The public counters of one engine. Counters an engine does not have
  * read 0: JOD has no `diffs`/`jDiffs`, VDC has no drop or write counters.
  */
final case class Counters(storedDiffs: Long, dropped: Long, recomputes: Long,
                          diffsWritten: Long, diffs: Long, jDiffs: Long)

/** One registered query, as the driver sees it. */
sealed trait Engine {
  def kind: EngineKind
  def initialRun(): Unit
  /** Absorb one batch. The engine mutates its own graph copy. */
  def applyBatch(batch: Seq[EdgeUpdate]): Unit
  /** The current answer at `node` (the SPSP read after every batch). */
  def answer(node: Int): Double
  def states(): Array[Double]
  def counters: Counters
  /** Bytes charged by `repro.util.MemoryModel`. */
  def modelBytes: Long
}

/** The only file of the benchmark that calls engine constructors,
  * `initialRun`, `applyBatch`, `access` and `currentStates`, so that a
  * change to the engine contract is absorbed here.
  *
  * Drop engines are built as `repro.harness.Workload.run` builds them:
  * Degree policy with τmin 2 and τmax at the 80th-percentile degree of the
  * query's graph, Bloom capacity 8192 for Prob-Drop.
  */
object Engines {
  val TauMin = 2
  val TauMaxPercentile = 80.0
  val BloomCapacity = 8192L

  /** Build the engine for `spec`. With a tracer, the spec (and its graph
    * view), the drop policy and the DroppedVT are wrapped so the tracer
    * sees every call into them; behaviour is unchanged.
    */
  def build(kind: EngineKind, spec: IFESpec, tracer: Tracer = null): Engine = {
    val s = if (tracer == null) spec else new TracedSpec(spec, tracer, kind)
    def policy(p: Double, seed: Long): DropPolicy = {
      val raw = DropPolicy.Degree(p, TauMin, spec.view.graph.degreePercentile(TauMaxPercentile), seed)
      if (tracer == null) raw else new TracedPolicy(raw, tracer)
    }
    def vt(raw: DroppedVT): DroppedVT = if (tracer == null) raw else new TracedVT(raw, tracer)
    kind match {
      case EngineKind.Jod => new JodEngine(kind, new Jod(s))
      case EngineKind.DetDrop(p, seed) => new JodEngine(kind, new Jod(s, policy(p, seed), vt(new DetDroppedVT)))
      case EngineKind.ProbDrop(p, seed) =>
        new JodEngine(kind, new Jod(s, policy(p, seed), vt(new ProbDroppedVT(BloomCapacity))))
      case EngineKind.Vdc => new VdcEngine(new Vdc(s))
    }
  }

  private final class JodEngine(val kind: EngineKind, val jod: Jod) extends Engine {
    def initialRun(): Unit = jod.initialRun()
    def applyBatch(batch: Seq[EdgeUpdate]): Unit = jod.applyBatch(batch)
    def answer(node: Int): Double = jod.access(node, math.max(1, jod.maxIterSeen))
    def states(): Array[Double] = jod.currentStates()
    def counters: Counters =
      Counters(jod.storedDiffCount, jod.droppedCount, jod.recomputeCount, jod.totalDiffsWritten, 0L, 0L)
    def modelBytes: Long = jod.memoryBytes
  }

  private final class VdcEngine(val vdc: Vdc) extends Engine {
    def kind: EngineKind = EngineKind.Vdc
    def initialRun(): Unit = vdc.initialRun()
    def applyBatch(batch: Seq[EdgeUpdate]): Unit = vdc.applyBatch(batch)
    def answer(node: Int): Double = vdc.currentStates()(node)
    def states(): Array[Double] = vdc.currentStates()
    def counters: Counters = Counters(0L, 0L, 0L, 0L, vdc.diffCount, vdc.jDiffCount)
    def modelBytes: Long = vdc.memoryBytes
  }

  /** Test hook: the JOD engine behind `e`, for corrupting its state. */
  private[bench] def jodOf(e: Engine): Jod = e match {
    case j: JodEngine => j.jod
    case _ => throw new IllegalArgumentException(s"${e.kind.label} is not a JOD engine")
  }
}
