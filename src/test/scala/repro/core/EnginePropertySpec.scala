package repro.core

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.graph._

/** ScalaCheck properties, run from ScalaTest: every differential
  * configuration — VDC, the DD stand-in (VDC merging every 3 versions),
  * plain JOD, Det-Drop, and Prob-Drop with a Bloom filter so small that most
  * lookups are false positives — must equal `ScratchEngine` on the updated
  * graph after every batch, for SSSP, K-hop, WCC, PageRank and RPQ. Every
  * configuration must also match scratch's trace at every level, read from
  * what it stores: a wrong intermediate state can hide at the fixpoint and
  * surface batches later.
  *
  * All five configurations run over one shared graph, which applies each
  * batch once while every engine absorbs the delta. Each is mirrored by the
  * same configuration alone on its own copy of the graph, applying the
  * batches itself; the two must agree in every state and every counter.
  *
  * Graphs have up to 60 vertices. Edges are drawn from a small pool, so
  * parallel edges, self-loops, deletes of absent edges, delete-then-reinsert
  * within one batch and weight changes (a delete and an insert of the same
  * pair) all occur; a fifth of the batches hold up to 64 updates, so one
  * batch touches a source many times. A failure shrinks to fewer batches,
  * updates and initial edges over the same vertex count.
  */
class EnginePropertySpec extends AnyFunSuite {
  import EnginePropertySpec._

  private val configs: Seq[(String, IFESpec => Engine)] = Seq(
    "vdc" -> (s => new Vdc(s)),
    "dd-merge-3" -> (s => new Vdc(s, mergeEvery = 3)),
    "jod" -> (s => new Jod(s)),
    "det-drop" -> (s => new Jod(s, DropPolicy.Random(0.5, seed = 3), new DetDroppedVT)),
    "prob-drop-high-fpr" ->
      (s => new Jod(s, DropPolicy.Random(0.5, seed = 5), new ProbDroppedVT(16, bitsPerElement = 1))),
  )

  /** The first node whose state differs from scratch, as a message. */
  private def mismatch(got: Array[Double], exp: Array[Double], eps: Double): Option[String] =
    got.indices.find { v =>
      if (eps == 0) got(v) != exp(v)
      else !(got(v).isInfinite && exp(v).isInfinite) && !(math.abs(got(v) - exp(v)) <= eps)
    }.map(v => s"node $v: got ${got(v)}, scratch ${exp(v)}")

  /** The first level i and node v where the engine's stored D_i(v), read by
    * `statesAt`, differs from D_i(v) folded from scratch's per-level trace,
    * up to one level past both horizons.
    */
  private def traceMismatch(statesAt: Int => Array[Double], maxIterSeen: Int, spec: IFESpec,
                            trace: IndexedSeq[Map[Int, Double]], eps: Double): Option[String] = {
    val d = Array.tabulate(spec.view.numNodes)(spec.init)
    val horizon = math.max(trace.size - 1, maxIterSeen) + 1
    (0 to horizon).iterator.flatMap { i =>
      if (i > 0 && i < trace.size) trace(i).foreach { case (v, x) => d(v) = x }
      mismatch(statesAt(i), d, eps).map(m => s"level $i, $m")
    }.nextOption()
  }

  /** Where `e` differs from scratch on `ref`: in its states and at any
    * level, read from JOD's difference lists or VDC's δD log.
    */
  private def againstScratch(e: Engine, ref: IFESpec, eps: Double): Option[String] = {
    val scratch = ScratchEngine.run(ref, withTrace = true)
    mismatch(e.currentStates(), scratch.states, eps).orElse(e match {
      case j: Jod => traceMismatch(j.statesAt, j.maxIterSeen, ref, scratch.trace, eps)
      case v: Vdc => traceMismatch(v.statesAt, v.maxIterSeen, ref, scratch.trace, eps)
    })
  }

  /** Every counter `e` reports. Reads may recompute dropped differences,
    * so two engines compare equal only after the same reads.
    */
  private def counters(e: Engine): Seq[Long] =
    Seq(e.storedDiffCount, e.jDiffCount, e.droppedCount, e.recomputeCount) ++
      (e match { case j: Jod => Seq(j.totalDiffsWritten); case _ => Nil })

  private def equalsScratch(mkSpec: DynamicGraph => IFESpec, eps: Double)(s: Scenario): Prop = {
    val shared = DynamicGraph.fromEdges(s.numVertices, s.initial)
    // (name, engine over the shared graph, the same engine alone on a copy)
    val fleet = configs.map { case (name, build) =>
      (name, build(mkSpec(shared)), build(mkSpec(DynamicGraph.fromEdges(s.numVertices, s.initial))))
    }
    fleet.foreach { case (_, e, alone) => e.initialRun(); alone.initialRun() }
    def check(at: String): Option[String] = {
      val ref = mkSpec(shared)
      fleet.iterator.flatMap { case (name, e, alone) =>
        againstScratch(e, ref, eps).map(m => s"$name after $at: $m")
          .orElse(againstScratch(alone, ref, eps).map(m => s"$name alone after $at: $m"))
          .orElse(Option.when(counters(e) != counters(alone))(
            s"$name after $at: counters ${counters(e)} shared, ${counters(alone)} alone"))
          .orElse(Option.when(!java.util.Arrays.equals(e.currentStates(), alone.currentStates()))(
            s"$name after $at: states differ from the engine alone"))
      }.nextOption()
    }
    val failure = check("initial run").orElse(s.batches.iterator.zipWithIndex.map { case (b, k) =>
      val delta = shared.apply(b)
      fleet.foreach { case (_, e, alone) => e.absorb(delta); alone.applyBatch(b) }
      check(s"batch $k")
    }.collectFirst { case Some(m) => m })
    failure.fold(Prop.passed)(m => Prop.falsified :| m)
  }

  private def check(mkSpec: DynamicGraph => IFESpec, weighted: Boolean, eps: Double = 0.0,
                    labels: Int = 1): Unit = {
    val prop = Prop.forAll(scenarios(weighted, labels))(equalsScratch(mkSpec, eps))
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(1)))
  }

  test("SSSP: every configuration equals scratch after every batch") {
    check(g => Queries.sssp(g, source = 0), weighted = true)
  }

  test("K-hop: every configuration equals scratch after every batch") {
    check(g => Queries.khop(g, source = 0, k = 3), weighted = false)
  }

  test("WCC: every configuration equals scratch after every batch") {
    check(g => Queries.wcc(g), weighted = false)
  }

  test("PageRank: every configuration equals scratch after every batch") {
    check(g => Queries.pagerank(g), weighted = false, eps = 1e-7)
  }

  test("RPQ: every configuration equals scratch after every batch") {
    check(g => Queries.rpq(g, source = 0, Rpq), weighted = false, labels = 2)
  }
}

object EnginePropertySpec {
  final case class Scenario(numVertices: Int, initial: List[(Int, Int, Int, Byte)],
                            batches: List[List[EdgeUpdate]])

  /** A 3-state automaton over labels 0 and 1 in which each label enters
    * and leaves several states, so one base edge touches several product
    * nodes on either side.
    */
  val Rpq: Automaton = Automaton(3,
    Seq((0, 0, 1), (0, 1, 0), (1, 1, 2), (1, 0, 1), (2, 0, 0)).map { case (f, l, t) => (f, l.toByte, t) },
    accepting = Set(2))

  /** 1–60 vertices and a pool of up to 40 edges, a sixth of them
    * self-loops; the initial graph and every update draw from the pool.
    * Weighted scenarios use weights 1–3 (few values, so ties and weight
    * changes back and forth happen); unweighted ones use weight 1. Labels
    * are drawn from 0 until `labels`.
    */
  def scenarios(weighted: Boolean, labels: Int = 1): Gen[Scenario] = for {
    nv <- Gen.choose(1, 60)
    vertex = Gen.choose(0, nv - 1)
    weight = if (weighted) Gen.choose(1, 3) else Gen.const(1)
    edge = for {
      s <- vertex
      d <- Gen.frequency(1 -> Gen.const(s), 5 -> vertex)
      w <- weight
      l <- Gen.choose(0, labels - 1)
    } yield (s, d, w, l.toByte)
    pool <- Gen.choose(1, 40).flatMap(Gen.listOfN(_, edge))
    initial <- Gen.listOf(Gen.oneOf(pool))
    update = Gen.oneOf(pool).flatMap { case (s, d, w, l) =>
      Gen.frequency(
        3 -> List(EdgeUpdate(s, d, w, l, add = true)),
        2 -> List(EdgeUpdate(s, d, w, l, add = false)), // absent when not live
        1 -> List(EdgeUpdate(s, d, w, l, add = false), EdgeUpdate(s, d, w, l, add = true)),
        1 -> weight.map(w2 => List(EdgeUpdate(s, d, w, l, add = false), EdgeUpdate(s, d, w2, l, add = true))),
      )
    }
    batch = Gen.frequency(4 -> Gen.choose(1, 4), 1 -> Gen.choose(5, 32))
      .flatMap(Gen.listOfN(_, update)).map(_.flatten)
    batches <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, batch))
  } yield Scenario(nv, initial, batches)

  /** Shrink batches, updates and initial edges by dropping them, never by
    * editing one: the vertex count bounds every edge, so it stays.
    */
  implicit val shrinkScenario: Shrink[Scenario] = Shrink { s =>
    implicit val keepEdge: Shrink[(Int, Int, Int, Byte)] = Shrink.shrinkAny
    Shrink.shrink(s.batches).filter(_.nonEmpty).map(b => s.copy(batches = b)) #:::
      Shrink.shrink(s.initial).map(i => s.copy(initial = i))
  }
}
