package repro.bench

import java.io.{BufferedWriter, FileWriter}
import scala.collection.mutable
import repro.core.{DropPolicy, DroppedVT, IFESpec}
import repro.graph.{DynamicGraph, GraphView}

/** Spans and counts of a traced run, kept in memory and written out at the
  * end. A span has a name, a parent, a start and an end; its self time is
  * its duration minus the time its child spans cover. Calls into the drop
  * layer (DroppedVT, DropPolicy) are too frequent to keep one span each:
  * they are timed as anonymous children, summed into their parent's child
  * time and into `dropNs`.
  *
  * Counts are taken only while `counting` is set, which the driver does
  * around `applyBatch`, so they describe maintenance work alone.
  */
final class Tracer {
  import Tracer._

  private var cap = 1 << 14
  private var name = new Array[Int](cap)
  private var parent = new Array[Int](cap)
  private var start = new Array[Long](cap)
  private var stop = new Array[Long](cap)
  private var child = new Array[Long](cap)
  private var n = 0
  private var current = -1

  val counts = new Array[Long](NumCounts)
  var dropNs: Long = 0L
  var counting: Boolean = false

  def begin(nm: Int): Int = {
    if (n == cap) grow()
    val id = n
    n += 1
    name(id) = nm; parent(id) = current; child(id) = 0L
    start(id) = System.nanoTime()
    current = id
    id
  }

  def end(id: Int): Unit = {
    val t = System.nanoTime()
    stop(id) = t
    val p = parent(id)
    if (p >= 0) child(p) += t - start(id)
    current = p
  }

  def span[A](nm: Int)(body: => A): A = {
    val id = begin(nm)
    try body finally end(id)
  }

  /** Time a drop-layer call as an anonymous child of the current span. */
  def dropCall[A](body: => A): A = {
    val t0 = System.nanoTime()
    try body finally {
      val d = System.nanoTime() - t0
      if (current >= 0) child(current) += d
      if (counting) dropNs += d
    }
  }

  @inline def count(c: Int): Unit = if (counting) counts(c) += 1

  /** Total duration, total self time and number of the spans named `nm`. */
  def totals(nm: Int): (Long, Long, Int) = {
    var dur = 0L; var self = 0L; var k = 0
    var i = 0
    while (i < n) {
      if (name(i) == nm) { val d = stop(i) - start(i); dur += d; self += d - child(i); k += 1 }
      i += 1
    }
    (dur, self, k)
  }

  def size: Int = n

  /** Write every span as a tab-separated row. */
  def write(path: String): Unit = {
    val f = new java.io.File(path)
    f.getParentFile.mkdirs()
    val out = new BufferedWriter(new FileWriter(f))
    try {
      out.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
      var i = 0
      while (i < n) {
        out.write(s"$i\t${parent(i)}\t${Names(name(i))}\t${start(i)}\t${stop(i)}\t${stop(i) - start(i) - child(i)}\n")
        i += 1
      }
    } finally out.close()
  }

  private def grow(): Unit = {
    cap *= 2
    name = java.util.Arrays.copyOf(name, cap); parent = java.util.Arrays.copyOf(parent, cap)
    start = java.util.Arrays.copyOf(start, cap); stop = java.util.Arrays.copyOf(stop, cap)
    child = java.util.Arrays.copyOf(child, cap)
  }
}

object Tracer {
  // span names
  val Batch = 0
  val ApplyJod = 1
  val ApplyDetDrop = 2
  val ApplyProbDrop = 3
  val ApplyVdc = 4
  val Answer = 5
  val Mutate = 6
  val Build = 7
  val Init = 8
  val Verify = 9
  val Names: Array[String] = Array("batch", "core.apply.jod", "core.apply.det_drop",
    "core.apply.prob_drop", "core.apply.vdc", "core.answer", "graph.mutate", "graph.build",
    "core.init", "verify")

  def applySpan(kind: EngineKind): Int = kind match {
    case EngineKind.Jod => ApplyJod
    case _: EngineKind.DetDrop => ApplyDetDrop
    case _: EngineKind.ProbDrop => ApplyProbDrop
    case EngineKind.Vdc => ApplyVdc
  }

  // counts
  val InEdgeVisits = 0
  val OutNodeVisits = 1
  val OutEdgeVisits = 2
  val JodRecomputes = 3
  val VdcRecomputes = 4
  val VtLookups = 5
  val VtHits = 6
  val VtFalseHits = 7
  val PolicyDecisions = 8
  val PolicyDrops = 9
  val NumCounts = 10
}

/** An [[IFESpec]] that delegates to `inner` and counts aggregation reruns:
  * `finish` runs exactly once per `recompute` and per VDC Min rerun.
  */
final class TracedSpec(inner: IFESpec, t: Tracer, kind: EngineKind) extends IFESpec {
  private val rerunCount = if (kind == EngineKind.Vdc) Tracer.VdcRecomputes else Tracer.JodRecomputes
  val view: GraphView = new TracedView(inner.view, t)
  def init(node: Int): Double = inner.init(node)
  def contrib(srcNode: Int, srcVal: Double, weight: Int, label: Byte): Double =
    inner.contrib(srcNode, srcVal, weight, label)
  def aggZero: Double = inner.aggZero
  def agg(a: Double, b: Double): Double = inner.agg(a, b)
  def finish(aggVal: Double, initVal: Double): Double = {
    t.count(rerunCount)
    inner.finish(aggVal, initVal)
  }
  def maxIters: Int = inner.maxIters
  override def fixedIters: Boolean = inner.fixedIters
  override def same(a: Double, b: Double): Boolean = inner.same(a, b)
  override def edgeTouchesAllOutNeighbours: Boolean = inner.edgeTouchesAllOutNeighbours
}

/** A [[GraphView]] that delegates to `inner` and counts the edges and
  * neighbours the engines iterate.
  */
final class TracedView(inner: GraphView, t: Tracer) extends GraphView {
  def graph: DynamicGraph = inner.graph
  def numNodes: Int = inner.numNodes
  def inEdges(node: Int): Iterator[(Int, Int, Byte)] = counted(inner.inEdges(node), Tracer.InEdgeVisits)
  def outNodes(node: Int): Iterator[Int] = counted(inner.outNodes(node), Tracer.OutNodeVisits)
  def outEdges(node: Int): Iterator[(Int, Int, Byte)] = counted(inner.outEdges(node), Tracer.OutEdgeVisits)
  def policyDegree(node: Int): Int = inner.policyDegree(node)
  def touchedDsts(u: Int, v: Int, label: Byte): Iterator[Int] = inner.touchedDsts(u, v, label)
  def touchedSrcs(u: Int, v: Int, label: Byte): Iterator[Int] = inner.touchedSrcs(u, v, label)
  def baseVertex(node: Int): Int = inner.baseVertex(node)

  private def counted[A](it: Iterator[A], c: Int): Iterator[A] = new Iterator[A] {
    def hasNext: Boolean = it.hasNext
    def next(): A = { t.count(c); it.next() }
  }
}

/** A [[DroppedVT]] that delegates to `inner`, times every call, and keeps
  * an exact shadow set of the added pairs, so a reported pair that was
  * never added counts as a false positive.
  */
final class TracedVT(inner: DroppedVT, t: Tracer) extends DroppedVT {
  private val shadow = mutable.HashSet.empty[Long]
  @inline private def key(node: Int, iter: Int): Long = (node.toLong << 32) | (iter.toLong & 0xffffffffL)

  private def hit(node: Int, iter: Int): Unit = {
    t.count(Tracer.VtHits)
    if (!shadow.contains(key(node, iter))) t.count(Tracer.VtFalseHits)
  }

  def add(node: Int, iter: Int): Unit = {
    shadow += key(node, iter)
    t.dropCall(inner.add(node, iter))
  }

  def latestIn(node: Int, loExclusive: Int, hiInclusive: Int): Int = {
    t.count(Tracer.VtLookups)
    val d = t.dropCall(inner.latestIn(node, loExclusive, hiInclusive))
    if (d >= 0) hit(node, d)
    d
  }

  /** Materialised inside the timed call: the inner iterator is lazy, and
    * the engines drain it without touching the VT in between.
    */
  def itersIn(node: Int, loExclusive: Int, hiInclusive: Int): Iterator[Int] = {
    t.count(Tracer.VtLookups)
    val found = t.dropCall(inner.itersIn(node, loExclusive, hiInclusive).toArray)
    found.foreach(hit(node, _))
    found.iterator
  }

  def logicalCount: Long = inner.logicalCount
  def sizeBytes: Long = inner.sizeBytes
}

/** A [[DropPolicy]] that delegates to `inner` and counts its decisions. */
final class TracedPolicy(inner: DropPolicy, t: Tracer) extends DropPolicy {
  def shouldDrop(node: Int, iter: Int, degree: Int): Boolean = {
    val drop = t.dropCall(inner.shouldDrop(node, iter, degree))
    t.count(Tracer.PolicyDecisions)
    if (drop) t.count(Tracer.PolicyDrops)
    drop
  }
  def name: String = inner.name
}
