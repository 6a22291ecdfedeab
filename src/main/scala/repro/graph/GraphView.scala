package repro.graph

/** A view of a [[DynamicGraph]] as the node space an IFE computation runs
  * over. The engines (Scratch / VDC / JOD) are written against this trait so
  * that the same code evaluates:
  *
  *  - plain directed queries (SPSP, SSSP, K-hop, PageRank) — nodes = vertices;
  *  - undirected queries (WCC) — every edge contributes both directions;
  *  - RPQs — nodes = (vertex, automaton state) product nodes.
  *
  * Views are live: they read the underlying mutable graph, so applying an
  * [[EdgeUpdate]] to the graph updates every view of it.
  */
trait GraphView {
  /** The underlying dynamic graph. */
  def graph: DynamicGraph

  /** Number of nodes in this view's node space. */
  def numNodes: Int

  /** In-edges of a node: (source node, weight, label). */
  def inEdges(node: Int): Iterator[(Int, Int, Byte)]

  /** Out-neighbour nodes (for scheduling direct-rule reruns). */
  def outNodes(node: Int): Iterator[Int]

  /** Hand each of `inEdges(node)` to `f`, in the same order. This default
    * walks `inEdges`, so a view that wraps another sees the same edges;
    * views over the primitive store override it with a loop that allocates
    * nothing per edge.
    */
  def visitIn(node: Int, f: EdgeVisitor): Unit = {
    val it = inEdges(node)
    while (it.hasNext) { val (w, wt, l) = it.next(); f.visit(w, wt, l) }
  }

  /** Hand each of `outNodes(node)` to `f`, in the same order; defaults and
    * overrides as for `visitIn`.
    */
  def visitOutNodes(node: Int, f: NodeVisitor): Unit = {
    val it = outNodes(node)
    while (it.hasNext) f.visit(it.next())
  }

  /** Out-edges of a node: (destination node, weight, label) — what the Join
    * operator of VDC enumerates when it reruns for a source node.
    */
  def outEdges(node: Int): Iterator[(Int, Int, Byte)]

  /** Hand each of `outEdges(node)` to `f`, in the same order; defaults and
    * overrides as for `visitIn`.
    */
  def visitOut(node: Int, f: EdgeVisitor): Unit = {
    val it = outEdges(node)
    while (it.hasNext) { val (x, wt, l) = it.next(); f.visit(x, wt, l) }
  }

  /** Degree used by the Degree drop policy for this node. */
  def policyDegree(node: Int): Int

  /** Nodes whose aggregation must be re-seeded (scheduled at iteration 1)
    * when the base edge (u, v, label) is inserted or deleted.
    */
  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int]

  /** Hand each of `touchedDsts(u, v, label)` to `f`; defaults and overrides
    * as for `visitIn`.
    */
  def visitTouchedDsts(u: Int, v: Int, label: Byte, f: NodeVisitor): Unit = {
    val it = touchedDsts(u, v, label)
    while (it.hasNext) f.visit(it.next())
  }

  /** Nodes whose Join operator must rerun when the base edge (u, v, label)
    * is inserted or deleted (the δE direct rule of VDC is keyed by source).
    */
  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int]

  /** Map a view node back to its base vertex (for reporting results). */
  def baseVertex(node: Int): Int
}

/** Directed view: nodes are exactly the graph's vertices. */
final class DirectView(val graph: DynamicGraph) extends GraphView {
  def numNodes: Int = graph.numVertices
  def inEdges(node: Int): Iterator[(Int, Int, Byte)] = graph.inAdj.edges(node)
  def outNodes(node: Int): Iterator[Int] = graph.outAdj.nodes(node)
  def outEdges(node: Int): Iterator[(Int, Int, Byte)] = graph.outAdj.edges(node)
  override def visitIn(node: Int, f: EdgeVisitor): Unit = graph.inAdj.visit(node, f)
  override def visitOutNodes(node: Int, f: NodeVisitor): Unit = graph.outAdj.visitNodes(node, f)
  override def visitOut(node: Int, f: EdgeVisitor): Unit = graph.outAdj.visit(node, f)
  def policyDegree(node: Int): Int = graph.degree(node)
  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int] = Iterator.single(v)
  override def visitTouchedDsts(u: Int, v: Int, label: Byte, f: NodeVisitor): Unit = f.visit(v)
  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int] = Iterator.single(u)
  def baseVertex(node: Int): Int = node
}

/** Undirected view (for WCC): each stored edge acts in both directions. */
final class UndirectedView(val graph: DynamicGraph) extends GraphView {
  def numNodes: Int = graph.numVertices
  def inEdges(node: Int): Iterator[(Int, Int, Byte)] =
    graph.inAdj.edges(node) ++ graph.outAdj.edges(node)
  def outNodes(node: Int): Iterator[Int] = graph.outAdj.nodes(node) ++ graph.inAdj.nodes(node)
  def outEdges(node: Int): Iterator[(Int, Int, Byte)] =
    graph.outAdj.edges(node) ++ graph.inAdj.edges(node)
  override def visitIn(node: Int, f: EdgeVisitor): Unit = {
    graph.inAdj.visit(node, f); graph.outAdj.visit(node, f)
  }
  override def visitOutNodes(node: Int, f: NodeVisitor): Unit = {
    graph.outAdj.visitNodes(node, f); graph.inAdj.visitNodes(node, f)
  }
  override def visitOut(node: Int, f: EdgeVisitor): Unit = {
    graph.outAdj.visit(node, f); graph.inAdj.visit(node, f)
  }
  def policyDegree(node: Int): Int = graph.degree(node)
  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int] = Iterator(u, v)
  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int] = Iterator(u, v)
  def baseVertex(node: Int): Int = node
}

/** Product view for RPQs: node = vertex * |Q| + automatonState. An edge
  * (w --l--> v) of the base graph induces product edges
  * ((w, q') → (v, q)) for every automaton transition q' --l--> q.
  */
final class ProductView(val graph: DynamicGraph, val automaton: Automaton) extends GraphView {
  private val nq = automaton.numStates
  val numNodes: Int = ProductView.numNodes(graph.numVertices, nq)
  @inline def nodeOf(v: Int, q: Int): Int = v * nq + q
  @inline def vertexOf(node: Int): Int = node / nq
  @inline def stateOf(node: Int): Int = node % nq

  def inEdges(node: Int): Iterator[(Int, Int, Byte)] = {
    val v = vertexOf(node); val q = stateOf(node)
    graph.inAdj.edges(v).flatMap { case (w, wt, l) =>
      automaton.prev(q, l).iterator.map(qp => (nodeOf(w, qp), wt, l))
    }
  }

  def outNodes(node: Int): Iterator[Int] = {
    val v = vertexOf(node); val q = stateOf(node)
    graph.outAdj.edges(v).flatMap { case (x, _, l) =>
      automaton.next(q, l).iterator.map(qn => nodeOf(x, qn))
    }
  }

  def outEdges(node: Int): Iterator[(Int, Int, Byte)] = {
    val v = vertexOf(node); val q = stateOf(node)
    graph.outAdj.edges(v).flatMap { case (x, wt, l) =>
      automaton.next(q, l).iterator.map(qn => (nodeOf(x, qn), wt, l))
    }
  }

  def policyDegree(node: Int): Int = graph.degree(vertexOf(node))

  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int] =
    automaton.statesEnteredOn(label).iterator.map(q => nodeOf(v, q))

  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int] =
    automaton.transitions.collect { case (from, l, _) if l == label => from }
      .distinct.iterator.map(q => nodeOf(u, q))

  def baseVertex(node: Int): Int = vertexOf(node)
}

object ProductView {
  /** |V| * |Q| product nodes, which must fit the `Int` node ids. */
  def numNodes(numVertices: Int, numStates: Int): Int = {
    val nodes = numVertices.toLong * numStates
    require(nodes <= Int.MaxValue,
      s"$numVertices vertices x $numStates automaton states = $nodes product nodes, more than Int ids hold")
    nodes.toInt
  }
}
