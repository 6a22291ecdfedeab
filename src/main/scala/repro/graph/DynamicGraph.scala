package repro.graph

/** A single edge update: insertion (`add = true`) or deletion, with weight
  * and label, per the paper's δE = [(u, v, label, weight, +/-)] (§3.1).
  * Weight updates appear as one deletion and one insertion.
  */
final case class EdgeUpdate(src: Int, dst: Int, weight: Int, label: Byte, add: Boolean)

/** Receives the edges of an adjacency walk: (neighbour node, weight, label). */
trait EdgeVisitor { def visit(node: Int, weight: Int, label: Byte): Unit }

/** Receives the neighbour nodes of an adjacency walk. */
trait NodeVisitor { def visit(node: Int): Unit }

/** One direction of a [[DynamicGraph]]'s adjacency: one `Array[Long]` per
  * vertex, each entry packing an edge's neighbour (bits 0–23), label (bits
  * 24–31) and weight (bits 32–63), plus a degree array. An entry costs 8
  * bytes; a vertex costs 8 bytes (its array reference and degree) plus, once
  * it has an edge, a 16-byte array header. A graph copy of SK-lite (about 7
  * edges per vertex and direction) measures 0.64 MB, against 1.05 MB when
  * each vertex and direction held three parallel arrays (neighbour `Int`,
  * weight `Int`, label `Byte`), whose headers and padding cost about 56
  * bytes per vertex.
  *
  * A vertex's edges stay in insertion order: removal shifts the tail down
  * rather than swapping the last edge in, so walk order (and with it
  * PageRank's summation order) does not depend on which edges were deleted.
  */
final class Adjacency private[graph] (numVertices: Int) {
  import Adjacency._

  private val deg = new Array[Int](numVertices)
  private val packed = Array.fill[Array[Long]](numVertices)(NoEdges)

  def degree(v: Int): Int = deg(v)

  /** Edges of `v` as (neighbour, weight, label), in insertion order. */
  def edges(v: Int): Iterator[(Int, Int, Byte)] = {
    val es = packed(v)
    Iterator.range(0, deg(v)).map { k => val e = es(k); (nodeOf(e), weightOf(e), labelOf(e)) }
  }

  /** Neighbours of `v`, in insertion order. */
  def nodes(v: Int): Iterator[Int] = {
    val es = packed(v)
    Iterator.range(0, deg(v)).map(k => nodeOf(es(k)))
  }

  /** Hand every edge of `v` to `f`, in insertion order, allocating nothing. */
  def visit(v: Int, f: EdgeVisitor): Unit = {
    val es = packed(v); val d = deg(v)
    var k = 0
    while (k < d) { val e = es(k); f.visit(nodeOf(e), weightOf(e), labelOf(e)); k += 1 }
  }

  /** Hand every neighbour of `v` to `f`, in insertion order, allocating nothing. */
  def visitNodes(v: Int, f: NodeVisitor): Unit = {
    val es = packed(v); val d = deg(v)
    var k = 0
    while (k < d) { f.visit(nodeOf(es(k))); k += 1 }
  }

  private[graph] def add(v: Int, other: Int, weight: Int, label: Byte): Unit = {
    val d = deg(v)
    if (d == packed(v).length) resize(v, math.max(2, d * 2))
    packed(v)(d) = pack(other, weight, label)
    deg(v) = d + 1
  }

  /** Make room for `counts(v)` edges at every vertex v, so that a bulk build
    * allocates each vertex's array once, at its exact size.
    */
  private[graph] def reserve(counts: Array[Int]): Unit = {
    var v = 0
    while (v < numVertices) { if (counts(v) > packed(v).length) resize(v, counts(v)); v += 1 }
  }

  private def resize(v: Int, cap: Int): Unit =
    packed(v) = java.util.Arrays.copyOf(packed(v), cap)

  /** Remove the first edge of `v` matching (other, weight, label) exactly. */
  private[graph] def remove(v: Int, other: Int, weight: Int, label: Byte): Boolean = {
    val es = packed(v); val d = deg(v); val e = pack(other, weight, label)
    var k = 0
    while (k < d && es(k) != e) k += 1
    if (k == d) return false
    System.arraycopy(es, k + 1, es, k, d - k - 1)
    deg(v) = d - 1
    true
  }
}

object Adjacency {
  /** Neighbours are stored in 24 bits, so a graph has at most 2^24 vertices. */
  val MaxVertices: Int = 1 << 24

  private val NoEdges = new Array[Long](0)

  @inline private[graph] def pack(node: Int, weight: Int, label: Byte): Long =
    (weight.toLong << 32) | ((label & 0xFF).toLong << 24) | (node & 0xFFFFFF).toLong
  @inline private[graph] def nodeOf(e: Long): Int = e.toInt & 0xFFFFFF
  @inline private[graph] def labelOf(e: Long): Byte = (e >>> 24).toByte
  @inline private[graph] def weightOf(e: Long): Int = (e >>> 32).toInt
}

/** A batch as a [[DynamicGraph]] applied it: the updates in order, and
  * whether each took effect (a delete of an absent edge does not).
  */
final class BatchDelta private[graph] () {
  private val updates = new scala.collection.mutable.ArrayBuffer[EdgeUpdate]
  private val took = new java.util.BitSet
  def size: Int = updates.size
  def apply(k: Int): EdgeUpdate = updates(k)
  def tookEffect(k: Int): Boolean = took.get(k)

  private[graph] def clear(): Unit = { updates.clear(); took.clear() }
  private[graph] def add(u: EdgeUpdate, effect: Boolean): Unit = { took.set(updates.size, effect); updates += u }
}

/** Mutable directed property graph with both out- and in-adjacency,
  * supporting edge insertion/deletion — the base collection E of the IFE
  * dataflow. Vertex set is fixed up front ([0, numVertices)); vertices
  * "appear" through their first edge, as in the paper (§3.1: vertex
  * insertions happen implicitly through edge insertions).
  *
  * Unweighted graphs use weight 1 (§3.1); unlabeled graphs use label 0.
  */
final class DynamicGraph(val numVertices: Int) {
  require(numVertices >= 0 && numVertices <= Adjacency.MaxVertices,
    s"$numVertices vertices: the graph store packs vertex ids into 24 bits (at most ${Adjacency.MaxVertices})")
  /** Out-edges: neighbour = destination. */
  val outAdj = new Adjacency(numVertices)
  /** In-edges: neighbour = source. */
  val inAdj = new Adjacency(numVertices)
  private var nEdges: Long = 0L

  def numEdges: Long = nEdges

  /** Out-edges of `v` as (destination, weight, label), in insertion order. */
  def outEdges(v: Int): Iterator[(Int, Int, Byte)] = outAdj.edges(v)
  /** In-edges of `v` as (source, weight, label), in insertion order. */
  def inEdges(v: Int): Iterator[(Int, Int, Byte)] = inAdj.edges(v)
  def outDegree(v: Int): Int = outAdj.degree(v)
  def inDegree(v: Int): Int = inAdj.degree(v)
  /** Total degree (in + out), used by the Degree drop policy. */
  def degree(v: Int): Int = outAdj.degree(v) + inAdj.degree(v)

  /** Insert edge (src → dst). Parallel edges are allowed (as in SNAP data
    * ingested edge-by-edge); an exact-duplicate insert adds a parallel edge.
    */
  def addEdge(src: Int, dst: Int, weight: Int = 1, label: Byte = 0): Unit = {
    outAdj.add(src, dst, weight, label)
    inAdj.add(dst, src, weight, label)
    nEdges += 1
  }

  /** Delete one edge matching (src, dst, weight, label) exactly.
    * @return true if an edge was removed
    */
  def removeEdge(src: Int, dst: Int, weight: Int = 1, label: Byte = 0): Boolean = {
    if (!outAdj.remove(src, dst, weight, label)) return false
    inAdj.remove(dst, src, weight, label)
    nEdges -= 1
    true
  }

  private val delta = new BatchDelta
  private val applyOne: EdgeUpdate => Unit = u =>
    delta.add(u, if (u.add) { addEdge(u.src, u.dst, u.weight, u.label); true }
                 else removeEdge(u.src, u.dst, u.weight, u.label))

  /** Apply a batch in order. The delta is this graph's and valid until the
    * next `apply`, which reuses it: a warm `apply` allocates nothing.
    */
  def apply(batch: Seq[EdgeUpdate]): BatchDelta = {
    delta.clear()
    batch.foreach(applyOne)
    delta
  }

  /** All current edges as update-tuples (for export to DataFrames/oracles). */
  def edgeList: Seq[(Int, Int, Int, Byte)] =
    (0 until numVertices).flatMap(v => outEdges(v).map { case (d, w, l) => (v, d, w, l) })

  /** Deep copy, with the edges of each vertex in the same order. */
  def copy(): DynamicGraph = DynamicGraph.fromEdges(numVertices, edgeList)

  /** Degree value at the given percentile in [0, 100] (for τ_max). */
  def degreePercentile(pct: Double): Int = {
    val degs = new Array[Int](numVertices)
    var v = 0
    while (v < numVertices) { degs(v) = degree(v); v += 1 }
    java.util.Arrays.sort(degs)
    if (degs.isEmpty) 0
    else degs(math.min(degs.length - 1, math.max(0, (pct / 100.0 * degs.length).toInt)))
  }
}

object DynamicGraph {
  /** Build a graph over [0, numVertices) from an edge list, inserting the
    * edges in list order.
    */
  def fromEdges(numVertices: Int, edges: Seq[(Int, Int, Int, Byte)]): DynamicGraph = {
    val g = new DynamicGraph(numVertices)
    val outDeg = new Array[Int](numVertices)
    val inDeg = new Array[Int](numVertices)
    edges.foreach { e => outDeg(e._1) += 1; inDeg(e._2) += 1 }
    g.outAdj.reserve(outDeg)
    g.inAdj.reserve(inDeg)
    edges.foreach { case (s, d, w, l) => g.addEdge(s, d, w, l) }
    g
  }
}
