package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.graph._

/** ScratchEngine checked against independent textbook implementations:
  * Dijkstra (SSSP), BFS (K-hop), union-find (WCC), dense power iteration
  * (PageRank), and brute-force path enumeration (RPQ).
  */
class ScratchEngineSpec extends AnyFunSuite {

  private def randomGraph(seed: Int, nV: Int, nE: Int, weighted: Boolean, labels: Int = 1): DynamicGraph = {
    val rnd = new Random(seed)
    val g = new DynamicGraph(nV)
    (0 until nE).foreach { _ =>
      val s = rnd.nextInt(nV); var d = rnd.nextInt(nV); if (d == s) d = (d + 1) % nV
      g.addEdge(s, d, if (weighted) 1 + rnd.nextInt(10) else 1, rnd.nextInt(labels).toByte)
    }
    g
  }

  private def dijkstra(g: DynamicGraph, s: Int): Array[Double] = {
    val dist = Array.fill(g.numVertices)(Double.PositiveInfinity)
    dist(s) = 0
    val pq = collection.mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, v) = pq.dequeue()
      if (d == dist(v)) g.outEdges(v).foreach { case (u, w, _) =>
        if (d + w < dist(u)) { dist(u) = d + w; pq.enqueue((dist(u), u)) }
      }
    }
    dist
  }

  test("SSSP equals Dijkstra on random weighted graphs") {
    for (seed <- 1 to 10) {
      val g = randomGraph(seed, 40, 120, weighted = true)
      assert(ScratchEngine.states(Queries.sssp(g, 0)).toSeq == dijkstra(g, 0).toSeq, s"seed $seed")
    }
  }

  test("K-hop equals truncated BFS") {
    for (seed <- 1 to 10; k <- Seq(1, 3, 5)) {
      val g = randomGraph(seed, 40, 100, weighted = false)
      val bfs = {
        val dist = Array.fill(g.numVertices)(Double.PositiveInfinity)
        dist(0) = 0
        var frontier = Set(0)
        for (d <- 1 to k) {
          frontier = frontier.flatMap(v => g.outEdges(v).map(_._1))
            .filter(v => dist(v).isInfinite)
          frontier.foreach(v => dist(v) = d.toDouble)
        }
        dist
      }
      assert(ScratchEngine.states(Queries.khop(g, 0, k)).toSeq == bfs.toSeq, s"seed $seed k $k")
    }
  }

  test("WCC equals union-find components") {
    for (seed <- 1 to 10) {
      val g = randomGraph(seed, 50, 60, weighted = false)
      val parent = Array.tabulate(g.numVertices)(identity)
      def find(x: Int): Int = if (parent(x) == x) x else { parent(x) = find(parent(x)); parent(x) }
      g.edgeList.foreach { case (s, d, _, _) =>
        val (a, b) = (find(s), find(d)); if (a != b) parent(math.max(a, b)) = math.min(a, b)
      }
      val expected = (0 until g.numVertices).map { v =>
        // component representative = minimum vertex id in the component
        (0 until g.numVertices).filter(u => find(u) == find(v)).min.toDouble
      }
      assert(ScratchEngine.states(Queries.wcc(g)).toSeq == expected, s"seed $seed")
    }
  }

  test("PageRank equals dense power iteration") {
    for (seed <- 1 to 5) {
      val g = randomGraph(seed, 30, 90, weighted = false)
      var pr = Array.fill(g.numVertices)(1.0)
      for (_ <- 1 to 10) {
        val next = Array.fill(g.numVertices)(0.0)
        (0 until g.numVertices).foreach { v =>
          val d = g.outDegree(v)
          if (d > 0) g.outEdges(v).foreach(e => next(e._1) += pr(v) / d)
        }
        pr = next.map(s => 0.15 + 0.85 * s)
      }
      val got = ScratchEngine.states(Queries.pagerank(g))
      got.indices.foreach(i => assert(math.abs(got(i) - pr(i)) < 1e-9, s"seed $seed node $i"))
    }
  }

  test("RPQ equals brute-force bounded path enumeration") {
    for (seed <- 1 to 8) {
      val g = randomGraph(seed, 15, 35, weighted = false, labels = 3)
      val m = Automaton.q2(0, 1)
      // brute force: BFS over (vertex, state) pairs
      val reach = collection.mutable.Set((0, 0))
      var frontier = List((0, 0))
      while (frontier.nonEmpty) {
        frontier = frontier.flatMap { case (v, q) =>
          g.outEdges(v).flatMap { case (u, _, l) => m.next(q, l).map(nq => (u, nq)) }
        }.filter(reach.add)
      }
      val expected = reach.filter(p => m.accepting(p._2)).map(_._1).toSet
      val spec = Queries.rpq(g, 0, m)
      val states = ScratchEngine.states(spec)
      val pv = spec.view.asInstanceOf[ProductView]
      val got = (0 until g.numVertices).filter { v =>
        m.accepting.exists(q => !states(pv.nodeOf(v, q)).isInfinite)
      }.toSet
      assert(got == expected, s"seed $seed")
    }
  }

  test("fixed-iteration runs execute exactly maxIters levels") {
    val g = randomGraph(3, 10, 20, weighted = false)
    assert(ScratchEngine.run(Queries.pagerank(g, iters = 4)).iterations == 4)
  }

  test("empty-frontier convergence reports iteration count") {
    val g = new DynamicGraph(3); g.addEdge(0, 1); g.addEdge(1, 2)
    val res = ScratchEngine.run(Queries.khop(g, 0, 5))
    assert(res.iterations <= 3)
    assert(res.states.toSeq == Seq(0.0, 1.0, 2.0))
  }
}
