package repro.landmark

import scala.collection.mutable
import repro.core.{IFESpec, Jod, Queries, ScratchEngine}
import repro.graph.{DynamicGraph, EdgeUpdate, GraphView, DirectView}

/** Landmark shortest-path indices, differentially maintained with Diff-IFE,
  * pruning a from-scratch SPSP — the paper's §6.6 Scratch-Landmark system.
  *
  * For each landmark l we maintain two SSSP indices with JOD engines:
  * distFrom(l)(v) = d(l, v) on the graph, and distTo(l)(v) = d(v, l) on the
  * reversed graph. For a query s → d:
  *
  *  - upper bound  ℓ_u = min_l distTo(l)(s) + distFrom(l)(d)
  *  - lower bound  lb(v) = max_l max( distFrom(l)(d) − distFrom(l)(v),
  *                                    distTo(l)(v) − distTo(l)(d) )
  *
  * and a frontier vertex v reached at distance k is pruned whenever
  * k + lb(v) > ℓ_u (it cannot lie on a shortest s→d path).
  */
final class Landmark(val graph: DynamicGraph, val landmarks: Seq[Int]) {
  import Queries.INF

  /** Reversed-graph view over the same mutable graph (kept in sync by
    * reversing each update before applying).
    */
  private val reversed = new DynamicGraph(graph.numVertices)
  graph.edgeList.foreach { case (s, d, w, l) => reversed.addEdge(d, s, w, l) }

  private val fwd: Seq[Jod] = landmarks.map { l =>
    val e = new Jod(Queries.sssp(graph, l)); e.initialRun(); e
  }
  private val bwd: Seq[Jod] = landmarks.map { l =>
    val e = new Jod(Queries.sssp(reversed, l)); e.initialRun(); e
  }

  private var fwdStates: Array[Array[Double]] = fwd.map(_.currentStates()).toArray
  private var bwdStates: Array[Array[Double]] = bwd.map(_.currentStates()).toArray

  /** Differentially maintain every landmark index for one batch.
    * NOTE: the *forward* engines mutate `graph`; the backward engines
    * mutate `reversed` with the flipped updates.
    */
  def applyBatch(batch: Seq[EdgeUpdate]): Unit = {
    val rev = batch.map(u => u.copy(src = u.dst, dst = u.src))
    // All forward engines share `graph`: only the first may mutate it.
    applyShared(fwd, batch, graph)
    applyShared(bwd, rev, reversed)
    fwdStates = fwd.map(_.currentStates()).toArray
    bwdStates = bwd.map(_.currentStates()).toArray
  }

  /** Apply a batch to engines sharing one mutable graph: mutate once, then
    * run each engine's maintenance with the graph already updated — we
    * temporarily un-apply and re-apply per engine to keep Jod's contract
    * (engines mutate the graph themselves).
    */
  private def applyShared(engines: Seq[Jod], batch: Seq[EdgeUpdate], g: DynamicGraph): Unit = {
    engines.zipWithIndex.foreach { case (e, i) =>
      if (i > 0) {
        // undo the mutation the previous engine performed
        batch.reverse.foreach { u =>
          if (u.add) g.removeEdge(u.src, u.dst, u.weight, u.label)
          else g.addEdge(u.src, u.dst, u.weight, u.label)
        }
      }
      e.applyBatch(batch)
    }
  }

  /** Total stored differences across all landmark engines. */
  def diffCount: Long = (fwd ++ bwd).map(_.storedDiffCount).sum

  /** Upper bound on d(s, d) through the landmarks. */
  def upperBound(s: Int, d: Int): Double =
    landmarks.indices.foldLeft(INF) { (best, i) =>
      math.min(best, bwdStates(i)(s) + fwdStates(i)(d))
    }

  /** Lower bound on d(v, d) by landmark triangle inequalities. */
  def lowerBound(v: Int, d: Int): Double =
    landmarks.indices.foldLeft(0.0) { (best, i) =>
      var b = best
      val f = fwdStates(i)
      val g = bwdStates(i)
      if (f(d) != INF && f(v) != INF) b = math.max(b, f(d) - f(v))
      if (g(v) != INF && g(d) != INF) b = math.max(b, g(v) - g(d))
      b
    }

  /** From-scratch SPSP with landmark pruning: frontier Bellman-Ford where a
    * vertex settled at distance k is not expanded if k + lb(v) > ℓ_u.
    * Returns d(s, d) (INF if unreachable).
    */
  def prunedSpsp(s: Int, d: Int): Double = {
    val lu = upperBound(s, d)
    val n = graph.numVertices
    val dist = Array.fill(n)(INF)
    dist(s) = 0.0
    var frontier = mutable.Set(s)
    var iter = 0
    while (frontier.nonEmpty && iter < n + 1) {
      iter += 1
      val next = mutable.Set.empty[Int]
      frontier.foreach { v =>
        // prune: v cannot be on a shortest s->d path
        if (dist(v) + lowerBound(v, d) <= lu) {
          graph.outEdges(v).foreach { case (u, w, _) =>
            val nd = dist(v) + w
            if (nd < dist(u)) { dist(u) = nd; next += u }
          }
        }
      }
      frontier = next
    }
    dist(d)
  }
}

object Landmark {
  /** The paper picks the 10 highest-degree vertices as landmarks. */
  def topDegree(g: DynamicGraph, k: Int = 10): Seq[Int] =
    (0 until g.numVertices).sortBy(v => -g.degree(v)).take(k)

  /** Unpruned frontier Bellman-Ford SPSP (the Scratch baseline's answer). */
  def scratchSpsp(g: DynamicGraph, s: Int, d: Int): Double =
    ScratchEngine.states(Queries.sssp(g, s))(d)
}
