package repro.landmark

import scala.collection.mutable
import repro.core.{Engine, EngineKind, Queries, ScratchEngine}
import repro.graph.{DynamicGraph, EdgeUpdate}

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

  /** The reversed graph (kept in sync by applying each update reversed). */
  private val reversed =
    DynamicGraph.fromEdges(graph.numVertices, graph.edgeList.map { case (s, d, w, l) => (d, s, w, l) })

  private def sssp(g: DynamicGraph, l: Int): Engine = {
    val e = EngineKind.build(EngineKind.Jod, Queries.sssp(g, l), seed = 0L); e.initialRun(); e
  }
  private val fwd: Seq[Engine] = landmarks.map(sssp(graph, _))
  private val bwd: Seq[Engine] = landmarks.map(sssp(reversed, _))

  private var fwdStates: Array[Array[Double]] = fwd.map(_.currentStates()).toArray
  private var bwdStates: Array[Array[Double]] = bwd.map(_.currentStates()).toArray

  /** Apply one batch to `graph` and, reversed, to `reversed`, and
    * differentially maintain every landmark index over them.
    */
  def applyBatch(batch: Seq[EdgeUpdate]): Unit = {
    val delta = graph.apply(batch)
    fwd.foreach(_.absorb(delta))
    val rev = reversed.apply(batch.map(u => u.copy(src = u.dst, dst = u.src)))
    bwd.foreach(_.absorb(rev))
    fwdStates = fwd.map(_.currentStates()).toArray
    bwdStates = bwd.map(_.currentStates()).toArray
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
