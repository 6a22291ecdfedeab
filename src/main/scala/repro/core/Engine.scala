package repro.core

import repro.core.{Jod => JodEngine, Vdc => VdcEngine}
import repro.graph.{BatchDelta, EdgeUpdate}

/** One continuous query over its spec's graph. The graph is the store: it
  * applies each batch once, and every engine over it absorbs the same
  * [[BatchDelta]], so a fleet of queries shares one graph.
  */
trait Engine {
  def spec: IFESpec
  /** Compute the query on the graph as it stands. */
  def initialRun(): Unit
  /** Maintain the query for a batch the graph has already applied. */
  def absorb(delta: BatchDelta): Unit
  /** Apply `batch` to the graph and absorb it: for an engine alone on its graph. */
  final def applyBatch(batch: Seq[EdgeUpdate]): Unit = absorb(spec.view.graph.apply(batch))
  def currentStates(): Array[Double]
  /** Bytes charged by the memory model. */
  def memoryBytes: Long
  // Stored differences (VDC: δD, δJ and δE tuples), dropped ones,
  // dropped-difference recomputations (Fig 6b) and stored δJ tuples.
  def storedDiffCount: Long
  def droppedCount: Long
  def recomputeCount: Long
  def jDiffCount: Long
}

/** Engine configurations under test — the GraphflowDB configurations and
  * baselines of §6.1.3.
  */
sealed trait EngineKind { def label: String }
object EngineKind {
  /** Re-execute the static algorithm after every batch. */
  case object Scratch extends EngineKind { def label = "SCRATCH" }
  /** Vanilla DC, 2-D timestamps, never merged. */
  case object Vdc extends EngineKind { def label = "VDC" }
  /** DD stand-in: vanilla DC with periodic merging (see DESIGN.md). */
  case object Dd extends EngineKind { def label = "DD" }
  /** Join-on-Demand with eager merging. */
  case object Jod extends EngineKind { def label = "JOD" }
  /** JOD + deterministic partial dropping. */
  final case class DetDrop(p: Double, degreeBased: Boolean) extends EngineKind {
    def label = s"DET-DROP(p=$p,${if (degreeBased) "degree" else "random"})"
  }
  /** JOD + probabilistic (Bloom) partial dropping. The Bloom filter is
    * sized for the expected drop volume at lite scale (8K entries ≈ 10 KB);
    * overfilling only raises the false-positive rate, never breaks
    * correctness.
    */
  final case class ProbDrop(p: Double, degreeBased: Boolean, bloomCapacity: Long = 8192L)
      extends EngineKind {
    def label = s"PROB-DROP(p=$p,${if (degreeBased) "degree" else "random"})"
  }

  /** The drop-policy seed of a fleet's q-th query. */
  def querySeed(q: Int): Long = 1000L + q

  /** The engine of configuration `kind` for `spec`: the one place engines,
    * drop policies and DroppedVTs are built. Policies draw from `seed`; the
    * Degree policy always drops below degree 2, never above the 80th
    * percentile.
    */
  def build(kind: EngineKind, spec: IFESpec, seed: Long): Engine = {
    def policy(p: Double, degreeBased: Boolean): DropPolicy =
      if (degreeBased) DropPolicy.Degree(p, tauMin = 2, tauMax = spec.view.graph.degreePercentile(80), seed)
      else DropPolicy.Random(p, seed)
    kind match {
      case Scratch => new ScratchEngine(spec)
      case Vdc => new VdcEngine(spec)
      case Dd => new VdcEngine(spec, mergeEvery = 10)
      case Jod => new JodEngine(spec)
      case DetDrop(p, degreeBased) => new JodEngine(spec, policy(p, degreeBased), new DetDroppedVT)
      case ProbDrop(p, degreeBased, cap) => new JodEngine(spec, policy(p, degreeBased), new ProbDroppedVT(cap))
    }
  }
}
