package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphViewSpec extends AnyFunSuite {

  private def mkGraph(): DynamicGraph = {
    val g = new DynamicGraph(4)
    g.addEdge(0, 1, 5, 0); g.addEdge(1, 2, 3, 1); g.addEdge(2, 0, 2, 0)
    g
  }

  test("DirectView mirrors the graph") {
    val v = new DirectView(mkGraph())
    assert(v.numNodes == 4)
    assert(v.inEdges(1).toSeq == Seq((0, 5, 0.toByte)))
    assert(v.outEdges(1).toSeq == Seq((2, 3, 1.toByte)))
    assert(v.outNodes(0).toSeq == Seq(1))
    assert(v.touchedDsts(0, 1, 0).toSeq == Seq(1))
    assert(v.touchedSrcs(0, 1, 0).toSeq == Seq(0))
    assert(v.baseVertex(3) == 3)
  }

  test("UndirectedView: every edge acts in both directions") {
    val v = new UndirectedView(mkGraph())
    assert(v.inEdges(1).map(_._1).toSet == Set(0, 2))
    assert(v.outNodes(1).toSet == Set(0, 2))
    assert(v.touchedDsts(0, 1, 0).toSet == Set(0, 1))
    assert(v.touchedSrcs(0, 1, 0).toSet == Set(0, 1))
  }

  test("ProductView wires base edges through automaton transitions") {
    val g = mkGraph() // labels: (0->1):a, (1->2):b, (2->0):a
    val m = Automaton.q2(0, 1) // a . b*
    val pv = new ProductView(g, m)
    assert(pv.numNodes == 8)
    // product in-edges of (2, q=1): base in-edge (1 -b-> 2); b enters 1 from 1
    assert(pv.inEdges(pv.nodeOf(2, 1)).toSeq == Seq((pv.nodeOf(1, 1), 3, 1.toByte)))
    // product in-edges of (1, q=1): base in-edge (0 -a-> 1); a: 0 -> 1
    assert(pv.inEdges(pv.nodeOf(1, 1)).toSeq == Seq((pv.nodeOf(0, 0), 5, 0.toByte)))
    // out nodes of (0, q=0): a-edge to vertex 1 entering automaton state 1
    assert(pv.outNodes(pv.nodeOf(0, 0)).toSeq == Seq(pv.nodeOf(1, 1)))
    // state 1 has no outgoing 'a' transition: a-labelled base edge is dead
    assert(pv.outNodes(pv.nodeOf(0, 1)).isEmpty)
    // an inserted a-edge (u,v) touches (v, 1) only (a enters state 1)
    assert(pv.touchedDsts(2, 3, 0).toSeq == Seq(pv.nodeOf(3, 1)))
    // and its sources are (u, 0) (a leaves state 0)
    assert(pv.touchedSrcs(2, 3, 0).toSeq == Seq(pv.nodeOf(2, 0)))
    assert(pv.baseVertex(pv.nodeOf(3, 1)) == 3)
  }

  test("ProductView refuses a product node space that overflows Int ids") {
    assert(ProductView.numNodes(1 << 24, 127) == 127 * (1 << 24))
    assert(ProductView.numNodes(0, 1 << 20) == 0)
    intercept[IllegalArgumentException](ProductView.numNodes(1 << 24, 128)) // 2^31
    intercept[IllegalArgumentException](ProductView.numNodes(Int.MaxValue, 2))
    // 2^16 vertices x 2^15 states = 2^31 product nodes, over a small store
    val g = new DynamicGraph(1 << 16)
    val many = Automaton(1 << 15, Seq((0, 0.toByte, 1)), accepting = Set(1))
    intercept[IllegalArgumentException](new ProductView(g, many))
    assert(new ProductView(g, Automaton(1 << 14, Seq((0, 0.toByte, 1)), Set(1))).numNodes == 1 << 30)
  }

  test("views are live: graph mutations are visible immediately") {
    val g = mkGraph()
    val v = new DirectView(g)
    assert(v.inEdges(3).isEmpty)
    g.addEdge(0, 3, 9, 0)
    assert(v.inEdges(3).toSeq == Seq((0, 9, 0.toByte)))
  }
}
