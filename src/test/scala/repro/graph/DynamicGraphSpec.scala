package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class DynamicGraphSpec extends AnyFunSuite {

  test("add and remove edges maintain both adjacency directions") {
    val g = new DynamicGraph(4)
    g.addEdge(0, 1, 5); g.addEdge(1, 2, 3); g.addEdge(0, 1, 7)
    assert(g.numEdges == 3)
    assert(g.outEdges(0).map(e => (e._1, e._2)).toSeq == Seq((1, 5), (1, 7)))
    assert(g.inEdges(1).map(e => (e._1, e._2)).toSeq == Seq((0, 5), (0, 7)))
    assert(g.removeEdge(0, 1, 5))
    assert(g.numEdges == 2)
    assert(g.outEdges(0).map(_._2).toSeq == Seq(7))
    assert(g.inEdges(1).map(_._2).toSeq == Seq(7))
    assert(!g.removeEdge(0, 1, 5)) // already gone
    assert(!g.removeEdge(3, 0, 1)) // never existed
  }

  test("degrees") {
    val g = new DynamicGraph(3)
    g.addEdge(0, 1); g.addEdge(0, 2); g.addEdge(1, 0)
    assert(g.outDegree(0) == 2 && g.inDegree(0) == 1 && g.degree(0) == 3)
    assert(g.outDegree(2) == 0 && g.inDegree(2) == 1)
  }

  test("apply batch of EdgeUpdates in order") {
    val g = new DynamicGraph(3)
    g.apply(Seq(
      EdgeUpdate(0, 1, 2, 0, add = true),
      EdgeUpdate(1, 2, 4, 0, add = true),
      EdgeUpdate(0, 1, 2, 0, add = false)))
    assert(g.edgeList == Seq((1, 2, 4, 0.toByte)))
  }

  test("copy is deep: mutations do not leak") {
    val g = new DynamicGraph(3)
    g.addEdge(0, 1); g.addEdge(1, 2)
    val c = g.copy()
    g.removeEdge(0, 1)
    assert(c.numEdges == 2 && g.numEdges == 1)
    c.addEdge(2, 0)
    assert(g.numEdges == 1 && c.numEdges == 3)
  }

  test("degreePercentile brackets the distribution") {
    val g = new DynamicGraph(10)
    // vertex 0 is a hub of degree 9, others degree 1
    (1 until 10).foreach(v => g.addEdge(0, v))
    assert(g.degreePercentile(0) == 1)
    assert(g.degreePercentile(50) == 1)
    assert(g.degreePercentile(99) == 9)
  }

  test("fromEdges round-trips edgeList") {
    val edges = Seq((0, 1, 3, 0.toByte), (2, 0, 1, 1.toByte), (1, 2, 9, 0.toByte))
    val g = DynamicGraph.fromEdges(3, edges)
    assert(g.edgeList.toSet == edges.toSet)
  }
}
