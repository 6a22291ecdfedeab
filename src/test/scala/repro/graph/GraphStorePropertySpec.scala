package repro.graph

import org.scalacheck.{Gen, Prop, Shrink, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** ScalaCheck properties of the primitive graph store and the views'
  * visitor walks, run from ScalaTest. Update sequences draw from a small
  * pool of edges so that parallel edges, self-loops, deletes of absent
  * edges and delete-then-reinsert all occur; a failure shrinks to the
  * shortest update sequence that still fails.
  */
class GraphStorePropertySpec extends AnyFunSuite {
  import GraphStorePropertySpec._

  private def check(prop: Prop): Unit = {
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res, Pretty.Params(1)))
  }

  test("DynamicGraph matches a list model: degrees, per-vertex edge order, edgeList, copy") {
    check(Prop.forAll(scenarios) { s =>
      val g = new DynamicGraph(s.numVertices)
      val out = Array.fill(s.numVertices)(mutable.ArrayBuffer.empty[(Int, Int, Byte)])
      val in = Array.fill(s.numVertices)(mutable.ArrayBuffer.empty[(Int, Int, Byte)])
      val removals = s.ops.map { u =>
        if (u.add) {
          g.addEdge(u.src, u.dst, u.weight, u.label)
          out(u.src) += ((u.dst, u.weight, u.label)); in(u.dst) += ((u.src, u.weight, u.label))
          true
        } else {
          val k = out(u.src).indexOf((u.dst, u.weight, u.label))
          if (k >= 0) { out(u.src).remove(k); in(u.dst) -= ((u.src, u.weight, u.label)) }
          g.removeEdge(u.src, u.dst, u.weight, u.label) == (k >= 0)
        }
      }
      val vs = 0 until s.numVertices
      removals.forall(identity) &&
        g.numEdges == out.map(_.size).sum &&
        vs.forall(v => g.outDegree(v) == out(v).size && g.inDegree(v) == in(v).size) &&
        vs.forall(v => g.outEdges(v).toSeq == out(v) && g.inEdges(v).toSeq == in(v)) &&
        g.edgeList == vs.flatMap(v => out(v).map { case (d, w, l) => (v, d, w, l) }) &&
        g.copy().edgeList == g.edgeList
    })
  }

  test("a packed edge entry decodes to its neighbour, weight and label") {
    val node = Gen.oneOf(Gen.choose(0, Adjacency.MaxVertices - 1), Gen.oneOf(0, Adjacency.MaxVertices - 1))
    check(Prop.forAll(node, weights, labels) { (v, w, l) =>
      val e = Adjacency.pack(v, w, l)
      Adjacency.nodeOf(e) == v && Adjacency.weightOf(e) == w && Adjacency.labelOf(e) == l
    })
  }

  test("visitIn and visitOutNodes walk exactly what inEdges and outNodes yield, in order") {
    check(Prop.forAll(scenarios) { s =>
      val g = new DynamicGraph(s.numVertices)
      g.apply(s.ops)
      val views = Seq(new DirectView(g), new UndirectedView(g),
        new ProductView(g, Automaton.q2(0, 1)))
      views.forall { view =>
        (0 until view.numNodes).forall { node =>
          val ins = mutable.ArrayBuffer.empty[(Int, Int, Byte)]
          view.visitIn(node, (w, wt, l) => ins += ((w, wt, l)))
          val outs = mutable.ArrayBuffer.empty[Int]
          view.visitOutNodes(node, x => outs += x)
          ins == view.inEdges(node).toSeq && outs == view.outNodes(node).toSeq
        }
      }
    })
  }
}

object GraphStorePropertySpec {
  final case class Scenario(numVertices: Int, ops: List[EdgeUpdate])

  /** Weights and labels at the edges of their packed fields, besides small
    * ones that make equal and near-equal edges likely.
    */
  val weights: Gen[Int] = Gen.oneOf(Gen.choose(1, 2), Gen.oneOf(Int.MinValue, -1, 0, Int.MaxValue))
  val labels: Gen[Byte] = Gen.oneOf(Gen.choose(0, 1), Gen.oneOf(-128, -1, 127)).map(_.toByte)

  /** 1–6 vertices; updates add or delete edges drawn from a pool of at most
    * six (src, dst, weight, label) tuples, where src == dst is as likely as
    * any other destination and the largest vertex id is drawn often.
    */
  val scenarios: Gen[Scenario] = for {
    nv <- Gen.choose(1, 6)
    vertex = Gen.frequency(3 -> Gen.choose(0, nv - 1), 1 -> Gen.const(nv - 1))
    edge = for { s <- vertex; d <- vertex; w <- weights; l <- labels } yield (s, d, w, l)
    pool <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, edge))
    ops <- Gen.listOf(for {
      (s, d, w, l) <- Gen.oneOf(pool)
      add <- Gen.oneOf(true, true, false)
    } yield EdgeUpdate(s, d, w, l, add))
  } yield Scenario(nv, ops)

  /** Shrink the update sequence only: the vertex count bounds every update. */
  implicit val shrinkScenario: Shrink[Scenario] =
    Shrink(s => Shrink.shrink(s.ops).map(ops => s.copy(ops = ops)))
}
