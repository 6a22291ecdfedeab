package repro.core

import repro.graph._

/** An instance of the Iterative Frontier Expansion dataflow (§3.2), in the
  * Jacobi form every engine in this repo evaluates:
  *
  * {{{
  *   D_0(v) = init(v)
  *   D_i(v) = finish( agg over (w,wt,l) in view.inEdges(v) of
  *                      contrib(w, D_{i-1}(w), wt, l),
  *                    init(v) )
  * }}}
  *
  * iterated until a fixpoint (or for exactly `maxIters` levels when
  * `fixedIters`). `INF` (`Double.PositiveInfinity`) means "no state".
  * Because each level is a pure function of the previous one, deletions and
  * other state *raises* converge level-by-level without delete-and-rederive
  * — the property DC maintenance relies on.
  *
  * For shortest-path-like queries `finish = min` (the paper's Min
  * aggregator); PageRank uses a Sum aggregator with the teleport folded into
  * `finish`.
  */
trait IFESpec {
  /** The node space the computation runs over. */
  def view: GraphView

  /** Initial state of a node (timestamp ⟨G_k, 0⟩). */
  def init(node: Int): Double

  /** Value the Join operator sends along an in-edge; INF = no contribution. */
  def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double

  /** Identity of the aggregation (INF for Min, 0.0 for Sum). */
  def aggZero: Double

  /** The aggregation operator (Min for traversals, + for PageRank). */
  def agg(a: Double, b: Double): Double

  /** Combine the aggregate with the node's initial state. */
  def finish(aggVal: Double, initVal: Double): Double

  /** Safety cap on IFE iterations (exact run length when `fixedIters`). */
  def maxIters: Int

  /** True for computations that run a fixed number of levels (PageRank). */
  def fixedIters: Boolean = false

  /** State equality — PageRank overrides with an epsilon so floating-point
    * summation-order noise does not masquerade as differences.
    */
  def same(a: Double, b: Double): Boolean = a == b

  /** True if an update to base edge (u, ·) changes u's *contribution* to all
    * its out-neighbours (PageRank: out-degree is in the denominator).
    */
  def edgeTouchesAllOutNeighbours: Boolean = false
}

/** The aggregation of the IFE dataflow, the one place it is defined:
  * `apply(node)` is D_i(node) = `finish(agg over (w, wt, l) in
  * spec.view.visitIn(node) of contrib(w, prev(w), wt, l), init(node))`,
  * calling `finish` exactly once. Subclasses say where the previous level's
  * states come from — engines route `prev` through their difference
  * indexes, or through AccessDWithDrops when differences were dropped.
  *
  * One instance serves any number of recomputes and allocates nothing. It
  * is re-entrant: `prev` may itself call `apply` (a dropped-difference
  * cascade), because the running aggregate of the outer call is kept on
  * the stack while the inner one runs.
  */
abstract class Aggregation(spec: IFESpec) extends EdgeVisitor {
  private var acc: Double = 0.0

  /** D_{i-1}(w), the previous level's state of in-neighbour `w`. */
  protected def prev(w: Int): Double

  final def apply(node: Int): Double = {
    val outer = acc
    acc = spec.aggZero
    spec.view.visitIn(node, this)
    val v = spec.finish(acc, spec.init(node))
    acc = outer
    v
  }

  final def visit(w: Int, wt: Int, l: Byte): Unit = {
    val sv = prev(w)
    if (sv != Queries.INF) {
      val c = spec.contrib(w, sv, wt, l)
      if (c != Queries.INF) acc = spec.agg(acc, c)
    }
  }
}

/** Constructors for the paper's query workloads (§6.1.2). */
object Queries {
  val INF: Double = Double.PositiveInfinity

  private abstract class MinSpec(val view: GraphView) extends IFESpec {
    def aggZero: Double = INF
    def agg(a: Double, b: Double): Double = math.min(a, b)
    def finish(aggVal: Double, initVal: Double): Double = math.min(aggVal, initVal)
    def maxIters: Int = view.numNodes + 1
  }

  /** SSSP from `source` (Bellman-Ford dataflow of Fig 1b). SPSP is the same
    * computation with the answer read off at the target vertex.
    */
  def sssp(g: DynamicGraph, source: Int): IFESpec = new MinSpec(new DirectView(g)) {
    def init(node: Int): Double = if (node == source) 0.0 else INF
    def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double = srcVal + weight
  }

  /** K-hop: hop distance from `source`, cut off at `k` (§3.1). Reachable
    * vertices are those with a finite state.
    */
  def khop(g: DynamicGraph, source: Int, k: Int): IFESpec = new MinSpec(new DirectView(g)) {
    def init(node: Int): Double = if (node == source) 0.0 else INF
    def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double =
      if (srcVal + 1 <= k) srcVal + 1 else INF
    override def maxIters: Int = k + 1
  }

  /** Weakly connected components: iterative minimum-vertex-id propagation
    * over the undirected view (§6.1.2).
    */
  def wcc(g: DynamicGraph): IFESpec = new MinSpec(new UndirectedView(g)) {
    def init(node: Int): Double = node.toDouble
    def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double = srcVal
  }

  /** RPQ: min-hop reachability over the (vertex × automaton-state) product
    * graph from (source, q0). A base vertex matches the RPQ iff some
    * accepting product node has a finite state.
    */
  def rpq(g: DynamicGraph, source: Int, automaton: Automaton): IFESpec = {
    val pv = new ProductView(g, automaton)
    new MinSpec(pv) {
      def init(node: Int): Double = if (node == pv.nodeOf(source, 0)) 0.0 else INF
      def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double = srcVal + 1
    }
  }

  /** PageRank, fixed 10 iterations as in §6.1.2, damping 0.85, uniform
    * teleport 0.15, contributions state/outDegree.
    */
  def pagerank(g: DynamicGraph, iters: Int = 10): IFESpec = new IFESpec {
    val view: GraphView = new DirectView(g)
    def init(node: Int): Double = 1.0
    def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double = {
      val d = g.outDegree(srcNode)
      if (d == 0) 0.0 else srcVal / d
    }
    def aggZero: Double = 0.0
    def agg(a: Double, b: Double): Double = a + b
    def finish(aggVal: Double, initVal: Double): Double = 0.15 + 0.85 * aggVal
    def maxIters: Int = iters
    override def fixedIters: Boolean = true
    override def same(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9
    override def edgeTouchesAllOutNeighbours: Boolean = true
  }
}
