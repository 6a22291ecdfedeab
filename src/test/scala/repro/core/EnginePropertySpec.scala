package repro.core

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.graph._

/** ScalaCheck properties, run from ScalaTest: every differential
  * configuration — VDC, the DD stand-in (VDC merging every 3 versions),
  * plain JOD, Det-Drop, and Prob-Drop with a Bloom filter so small that most
  * lookups are false positives — must equal `ScratchEngine` on the updated
  * graph after every batch, for SSSP, K-hop, WCC and PageRank. The JOD
  * configurations must also match scratch's trace at every level: a wrong
  * intermediate state can hide at the fixpoint and surface batches later.
  *
  * Graphs have up to 60 vertices. Edges are drawn from a small pool, so
  * parallel edges, self-loops, deletes of absent edges, delete-then-reinsert
  * within one batch and weight changes (a delete and an insert of the same
  * pair) all occur. A failure shrinks to fewer batches, updates and initial
  * edges over the same vertex count.
  */
class EnginePropertySpec extends AnyFunSuite {
  import EnginePropertySpec._

  /** A configuration under test; `jod` is set when its states can be read
    * at every level.
    */
  private final case class Engine(applyBatch: Seq[EdgeUpdate] => Unit, states: () => Array[Double],
                                  jod: Option[Jod] = None)

  private val configs: Seq[(String, IFESpec => Engine)] = Seq(
    "vdc" -> (s => vdc(new Vdc(s))),
    "dd-merge-3" -> (s => vdc(new Vdc(s, mergeEvery = 3))),
    "jod" -> (s => jod(new Jod(s))),
    "det-drop" -> (s => jod(new Jod(s, DropPolicy.Random(0.5, seed = 3), new DetDroppedVT))),
    "prob-drop-high-fpr" ->
      (s => jod(new Jod(s, DropPolicy.Random(0.5, seed = 5), new ProbDroppedVT(16, bitsPerElement = 1)))),
  )

  private def vdc(e: Vdc): Engine = { e.initialRun(); Engine(e.applyBatch, () => e.currentStates()) }
  private def jod(e: Jod): Engine = { e.initialRun(); Engine(e.applyBatch, () => e.currentStates(), Some(e)) }

  /** The first node whose state differs from scratch, as a message. */
  private def mismatch(got: Array[Double], exp: Array[Double], eps: Double): Option[String] =
    got.indices.find { v =>
      if (eps == 0) got(v) != exp(v)
      else !(got(v).isInfinite && exp(v).isInfinite) && !(math.abs(got(v) - exp(v)) <= eps)
    }.map(v => s"node $v: got ${got(v)}, scratch ${exp(v)}")

  /** The first level i and node v where `jod.access(v, i)` differs from
    * D_i(v), folded from scratch's per-level trace, up to one level past
    * both horizons.
    */
  private def traceMismatch(jod: Jod, spec: IFESpec, trace: IndexedSeq[Map[Int, Double]],
                            eps: Double): Option[String] = {
    val d = Array.tabulate(spec.view.numNodes)(spec.init)
    val horizon = math.max(trace.size - 1, jod.maxIterSeen) + 1
    (0 to horizon).iterator.flatMap { i =>
      if (i > 0 && i < trace.size) trace(i).foreach { case (v, x) => d(v) = x }
      mismatch(jod.statesAt(i), d, eps).map(m => s"level $i, $m")
    }.nextOption()
  }

  private def equalsScratch(mkSpec: DynamicGraph => IFESpec, eps: Double)(s: Scenario): Prop = {
    val failures = configs.iterator.flatMap { case (name, build) =>
      val g = DynamicGraph.fromEdges(s.numVertices, s.initial)
      val ref = DynamicGraph.fromEdges(s.numVertices, s.initial)
      val engine = build(mkSpec(g))
      def check(at: String): Option[String] = {
        val refSpec = mkSpec(ref)
        val scratch = ScratchEngine.run(refSpec, withTrace = engine.jod.isDefined)
        mismatch(engine.states(), scratch.states, eps)
          .orElse(engine.jod.flatMap(traceMismatch(_, refSpec, scratch.trace, eps)))
          .map(m => s"$name after $at: $m")
      }
      check("initial run").orElse(s.batches.iterator.zipWithIndex.map { case (b, k) =>
        engine.applyBatch(b); ref.apply(b); check(s"batch $k")
      }.collectFirst { case Some(m) => m })
    }
    if (failures.hasNext) Prop.falsified :| failures.next() else Prop.passed
  }

  private def check(mkSpec: DynamicGraph => IFESpec, weighted: Boolean, eps: Double = 0.0): Unit = {
    val prop = Prop.forAll(scenarios(weighted))(equalsScratch(mkSpec, eps))
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
}

object EnginePropertySpec {
  final case class Scenario(numVertices: Int, initial: List[(Int, Int, Int, Byte)],
                            batches: List[List[EdgeUpdate]])

  /** 1–60 vertices and a pool of up to 40 edges, a sixth of them
    * self-loops; the initial graph and every update draw from the pool.
    * Weighted scenarios use weights 1–3 (few values, so ties and weight
    * changes back and forth happen); unweighted ones use weight 1.
    */
  def scenarios(weighted: Boolean): Gen[Scenario] = for {
    nv <- Gen.choose(1, 60)
    vertex = Gen.choose(0, nv - 1)
    weight = if (weighted) Gen.choose(1, 3) else Gen.const(1)
    edge = for {
      s <- vertex
      d <- Gen.frequency(1 -> Gen.const(s), 5 -> vertex)
      w <- weight
    } yield (s, d, w, 0.toByte)
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
    batch = Gen.choose(1, 4).flatMap(Gen.listOfN(_, update)).map(_.flatten)
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
