package repro.core

import scala.collection.mutable
import repro.graph.{BatchDelta, EdgeVisitor}
import repro.util.{Frontier, MemoryModel, Multiset}

/** Vanilla Differential Computation (paper §3.3) for the IFE dataflow —
  * the VDC baseline, with full two-dimensional ⟨graph-version k, IFE
  * iteration i⟩ timestamps and difference multisets for every collection:
  *
  *  - δD — output of the aggregation (Min/Sum) operator, per node;
  *  - δJ — output of the Join operator, indexed both by source (to diff a
  *    rerun against the source's accumulated output) and by destination
  *    (to reassemble the aggregation's input) — δJ is what JOD drops;
  *  - δE — edge updates (kept in the mutable graph; counted and traced).
  *
  * Operators rerun according to DC's direct and least-upper-bound rules;
  * since updates only ever arrive at the latest version K, every rerun
  * happens at timestamps ⟨K, i⟩, processed in ascending i.
  *
  * The difference sets are arranged traces (as in Differential Dataflow's
  * arrangements): per node and collection, one run of differences in
  * primitive arrays, in ascending timestamp order, allocated on the node's
  * first write. Every write lands at ⟨K, i⟩ with K the newest version and i
  * rising within a version, so a write only ever appends or consolidates
  * at the tail of a run. An accumulation Σ_{s ≤ t} is a scan of one run
  * into a reusable [[Multiset]].
  *
  * `mergeEvery = 0` never merges — pure VDC, whose per-node timestamp count
  * grows with every batch. `mergeEvery = M > 0` periodically merges the
  * version dimension like the DD system does (§4.2) — our stand-in for the
  * DD baseline (see DESIGN.md substitutions).
  */
final class Vdc(val spec: IFESpec, val mergeEvery: Int = 0, val captureTrace: Boolean = false) extends Engine {
  import Queries.INF
  import Vdc.Run

  private val view = spec.view
  private val n = view.numNodes

  /** Pack ⟨version, iteration⟩; iteration capped far below 2^24. */
  @inline private def ts(k: Int, i: Int): Long = (k.toLong << 24) | i.toLong
  @inline private def tsK(t: Long): Int = (t >>> 24).toInt
  @inline private def tsI(t: Long): Int = (t & 0xffffffL).toInt

  /** δD per node: (ts, value, mult). */
  private val dRuns = new Array[Run](n)
  /** δJ by source node: (ts, dst, value, mult). */
  private val jSrc = new Array[Run](n)
  /** δJ by destination node: (ts, value, mult), the aggregation's input.
    * Several sources write a destination at the same timestamp, so an entry
    * whose multiplicities cancel stays with multiplicity 0: the timestamp
    * still has a difference set, which the upper-bound rule reads.
    */
  private val jDst = new Array[Run](n)

  private var version: Int = -1
  /** Highest iteration any version has run to. */
  var maxIterSeen: Int = 0
  private var eDiffCount: Long = 0L
  /** Incrementally-maintained count of stored δD + δJ tuples, so budget
    * checks after every batch are O(1) rather than a full-state scan.
    */
  private var nDiffs: Long = 0L

  // trace capture (Table 3): ts -> list of (node/src->dst, value, mult)
  val traceD: mutable.Map[Long, mutable.ArrayBuffer[(Int, Double, Int)]] = mutable.Map.empty
  val traceJ: mutable.Map[Long, mutable.ArrayBuffer[(Int, Double, Int)]] = mutable.Map.empty
  val traceE: mutable.Map[Long, mutable.ArrayBuffer[(Int, Int, Int, Int)]] = mutable.Map.empty

  // per-version scheduling state, drained by processVersion
  private val joinSched = new Frontier(n)
  private val minSched = new Frontier(n)
  private var maxScheduled: Int = 0
  private val iterCap: Int = spec.maxIters

  // scratch reused by every rerun
  private val dAcc = new Multiset
  private val jAcc = new Multiset
  private val merged = new Run(withDst = true)
  /** Per destination, the last `rerunJoin` call that scheduled its Min. */
  private val minStamp = new Array[Int](n)
  private var joinCall = 0

  /** Readable trace accessors (iteration-major), for the Table 3 check. */
  def dDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] =
    traceD.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq
  def jDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] =
    traceJ.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq

  // ------------------------------------------------------------------
  // Runs and accumulations (Equations 1 and 2 of the paper)
  // ------------------------------------------------------------------

  private def runOf(runs: Array[Run], node: Int, withDst: Boolean): Run = {
    var r = runs(node)
    if (r == null) { r = new Run(withDst); runs(node) = r }
    r
  }

  /** Add `sign` × every difference of `run` at an iteration ≤ i to `acc`,
    * keyed by destination in δJ by source and by 0 otherwise. Every stored
    * timestamp has a version ≤ the current one, so ⟨k, i'⟩ ≤ ⟨K, i⟩ reduces
    * to i' ≤ i.
    */
  private def addUpTo(run: Run, i: Int, sign: Int, acc: Multiset): Unit = if (run != null) {
    var k = 0
    while (k < run.size) {
      if (tsI(run.ts(k)) <= i && run.mult(k) != 0)
        acc.add(if (run.dst == null) 0 else run.dst(k), run.value(k), sign * run.mult(k))
      k += 1
    }
  }

  /** Reassemble D^node at ⟨current version, i⟩: sum all differences at
    * timestamps ≤ it. Returns NaN if the node has no state yet. After a
    * version is processed, D at any timestamp is one value, so the sum must
    * be empty or exactly {value: +1}.
    */
  private def reassembleD(node: Int, i: Int): Double = {
    if (i < 0) return Double.NaN
    dAcc.clear()
    addUpTo(dRuns(node), i, 1, dAcc)
    val k = singleton(dAcc)
    if (k == -2) notSingleton(node, i)
    if (k < 0) Double.NaN else dAcc.value(k)
  }

  /** The index of the only nonzero entry of `acc` if `acc` is exactly
    * {value: +1}, -1 if it is empty, -2 otherwise.
    */
  private def singleton(acc: Multiset): Int = {
    var found = -1
    var k = 0
    while (k < acc.size) {
      val m = acc.mult(k)
      if (m != 0) {
        if (found >= 0 || m != 1) return -2
        found = k
      }
      k += 1
    }
    found
  }

  private def notSingleton(node: Int, i: Int): Nothing = {
    val sum = (0 until dAcc.size).collect { case k if dAcc.mult(k) != 0 => s"${dAcc.value(k)}: ${dAcc.mult(k)}" }
    throw new IllegalArgumentException(
      s"requirement failed: D of node $node at iteration $i sums to {${sum.mkString(", ")}}, not one value with multiplicity +1")
  }

  /** Aggregate a J multiset and combine with init — D = Agg(J) ∪ init. */
  private def aggregate(node: Int, j: Multiset): Double = {
    var acc = spec.aggZero
    var k = 0
    while (k < j.size) {
      var c = j.mult(k)
      while (c > 0) { acc = spec.agg(acc, j.value(k)); c -= 1 }
      k += 1
    }
    spec.finish(acc, spec.init(node))
  }

  /** Add m × value to δJ^dst at t, consolidating with the tail. */
  private def writeJDst(dst: Int, t: Long, value: Double, m: Int): Unit = {
    val r = runOf(jDst, dst, withDst = false)
    var k = r.tailFrom(t)
    while (k < r.size && r.value(k) != value) k += 1
    if (k < r.size) r.mult(k) += m else r.append(t, 0, value, m)
  }

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------

  private def schedule(f: Frontier, node: Int, i: Int): Unit = {
    if (i < 0 || i > iterCap) return
    f.add(i, node)
    if (i > maxScheduled) maxScheduled = i
  }

  /** Schedule Min(v) at ⟨K,i⟩ plus least-upper-bounds with earlier-version
    * δJ^v timestamps (the upper-bound rule).
    */
  private def scheduleMin(v: Int, K: Int, i: Int): Unit = {
    schedule(minSched, v, i)
    val r = jDst(v)
    if (r != null) {
      var k = 0
      while (k < r.size && tsK(r.ts(k)) < K) {
        if (tsI(r.ts(k)) > i) schedule(minSched, v, tsI(r.ts(k)))
        k += 1
      }
    }
  }

  /** Schedule Join(u) at ⟨K,i⟩ plus lubs with earlier-version δD^u diffs. */
  private def scheduleJoin(u: Int, K: Int, i: Int): Unit = {
    schedule(joinSched, u, i)
    val r = dRuns(u)
    var k = 0
    while (k < r.size && tsK(r.ts(k)) < K) {
      if (tsI(r.ts(k)) + 1 > i) schedule(joinSched, u, tsI(r.ts(k)) + 1)
      k += 1
    }
  }

  /** Schedule Min(dst) once per `rerunJoin` call that changes δJ^dst. */
  private def touchMin(dst: Int, K: Int, i: Int): Unit =
    if (minStamp(dst) != joinCall) { minStamp(dst) = joinCall; scheduleMin(dst, K, i) }

  // ------------------------------------------------------------------
  // Operator reruns
  // ------------------------------------------------------------------

  // The Join's walk over u's out-edges, as one reusable visitor: rerunJoin
  // sets the source's state before each walk.
  private var joinState = 0.0
  private var joinSrc = 0
  private val joinOut: EdgeVisitor = (dst, w, l) => {
    val c = spec.contrib(joinSrc, joinState, w, l)
    if (c != INF) jAcc.add(dst, c, 1)
  }

  private def rerunJoin(u: Int, K: Int, i: Int): Unit = {
    val t = ts(K, i)
    joinCall += 1
    if (joinCall == Int.MaxValue) { java.util.Arrays.fill(minStamp, 0); joinCall = 1 }
    // Retract any diff previously written at this exact timestamp (overwrite
    // semantics): remove from the source index and from the dst mirrors.
    val src = jSrc(u)
    if (src != null) {
      val from = src.tailFrom(t)
      var k = from
      while (k < src.size) {
        writeJDst(src.dst(k), t, src.value(k), -src.mult(k))
        touchMin(src.dst(k), K, i)
        k += 1
      }
      nDiffs -= src.size - from
      src.size = from
    }
    // New contributions of u at ⟨K, i⟩ from D^u at ⟨K, i-1⟩ and E_K.
    jAcc.clear()
    val dU = reassembleD(u, i - 1)
    if (!dU.isNaN && dU != INF) {
      joinSrc = u; joinState = dU
      view.visitOut(u, joinOut)
    }
    // δ = new − Σ_{s ≤ t} δ_s (t itself already retracted above).
    addUpTo(src, i, -1, jAcc)
    var k = 0
    while (k < jAcc.size) {
      val m = jAcc.mult(k)
      if (m != 0) {
        val dst = jAcc.key(k)
        val v = jAcc.value(k)
        runOf(jSrc, u, withDst = true).append(t, dst, v, m)
        nDiffs += 1
        writeJDst(dst, t, v, m)
        if (captureTrace)
          traceJ.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((dst, v, m))
        touchMin(dst, K, i)
      }
      k += 1
    }
  }

  private def rerunMin(v: Int, K: Int, i: Int): Unit = {
    val t = ts(K, i)
    // Retract existing diff at exactly t (overwrite semantics). Within a
    // version each (v, i) is rerun at most once, so nothing from THIS
    // version can be stored at t; the retraction is a guard for idempotence.
    val d = runOf(dRuns, v, withDst = false)
    val from = d.tailFrom(t)
    nDiffs -= d.size - from
    d.size = from
    // Iteration 0 is the initial-state injection (J carries no Join output
    // there); later iterations aggregate the accumulated Join input.
    val newD =
      if (i == 0) spec.init(v)
      else { jAcc.clear(); addUpTo(jDst(v), i, 1, jAcc); aggregate(v, jAcc) }
    // Equation 2: δO_t = Op(...) − Σ_{s ≤ t} δO_s, as a FULL multiset
    // subtraction — across versions the accumulated set can transiently
    // hold several values with mixed multiplicities, all of which the new
    // difference must compensate.
    dAcc.clear()
    addUpTo(d, i, 1, dAcc)
    // Suppress no-op diffs (within spec.same tolerance) only when the
    // accumulation is already the clean singleton {old: +1}.
    val old = singleton(dAcc)
    if (old >= 0 && spec.same(dAcc.value(old), newD)) return
    dAcc.negate()
    dAcc.add(0, newD, 1)
    var wrote = false
    var k = 0
    while (k < dAcc.size) {
      val m = dAcc.mult(k)
      if (m != 0) {
        d.append(t, 0, dAcc.value(k), m)
        nDiffs += 1
        wrote = true
        if (captureTrace)
          traceD.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((v, dAcc.value(k), m))
      }
      k += 1
    }
    if (wrote) {
      if (i > maxIterSeen) maxIterSeen = i
      // δD direct rule: Join(v) consumes D^v at i, producing output at i+1,
      // plus lubs with earlier-version δD^v (handled inside scheduleJoin).
      scheduleJoin(v, K, i + 1)
    }
  }

  private def processVersion(K: Int): Unit = {
    var i = 0
    while (i <= maxScheduled && i <= iterCap) {
      var u = joinSched.poll(i)
      while (u >= 0) { rerunJoin(u, K, i); u = joinSched.poll(i) }
      var v = minSched.poll(i)
      while (v >= 0) { rerunMin(v, K, i); v = minSched.poll(i) }
      i += 1
    }
  }

  // ------------------------------------------------------------------
  // Public API
  // ------------------------------------------------------------------

  /** Run the computation on the initial graph (version 0) differentially. */
  def initialRun(): Unit = {
    require(version == -1, "initialRun must be called exactly once")
    version = 0
    maxScheduled = 0
    if (captureTrace) {
      val t0 = ts(0, 0)
      view.graph.edgeList.foreach { case (s, d, w, _) =>
        traceE.getOrElseUpdate(t0, mutable.ArrayBuffer.empty) += ((s, d, w, 1))
      }
    }
    // The initial edge collection lives in the shared graph store (all
    // configurations, Scratch included, hold it); only *update* differences
    // to E are charged to the differential state.
    var v = 0
    while (v < n) {
      schedule(minSched, v, 0)
      // Also evaluate level 1 unconditionally: a node with no Join input can
      // still transition at iteration 1 (PageRank: 1.0 → 0.15 for
      // in-degree-0 nodes). For Min-style specs this is a no-op rerun.
      schedule(minSched, v, 1)
      v += 1
    }
    processVersion(0)
  }

  /** Maintain the computation for one batch the graph applied (version k+1). */
  def absorb(delta: BatchDelta): Unit = {
    require(version >= 0, "call initialRun first")
    version += 1
    val K = version
    maxScheduled = 0
    var b = 0
    while (b < delta.size) {
      val u = delta(b)
      // Deleting an absent edge changes nothing: no δE, no reruns.
      if (delta.tookEffect(b)) {
        if (captureTrace)
          traceE.getOrElseUpdate(ts(K, 0), mutable.ArrayBuffer.empty) +=
            ((u.src, u.dst, u.weight, if (u.add) 1 else -1))
        eDiffCount += 1
        // δE direct rule + lub with every existing δD^u iteration: Join(u)
        // rerun at ⟨K, j+1⟩ for each iteration j at which D^u has a difference.
        val srcs = view.touchedSrcs(u.src, u.dst, u.label)
        while (srcs.hasNext) {
          val s = srcs.next()
          val d = dRuns(s)
          var k = 0
          while (d != null && k < d.size) { schedule(joinSched, s, tsI(d.ts(k)) + 1); k += 1 }
        }
      }
      b += 1
    }
    processVersion(K)
    if (mergeEvery > 0 && K % mergeEvery == 0) mergeVersions()
  }

  /** Merge the version dimension: union all difference sets per (node,
    * iteration) row into a single diff at the current version (the DD
    * periodic-merging optimization, §4.2).
    */
  def mergeVersions(): Unit = {
    var v = 0
    while (v < n) {
      collapse(dRuns(v)); collapse(jDst(v)); collapse(jSrc(v))
      v += 1
    }
    recountDiffs()
  }

  /** Collapse a run in place into one consolidated difference set per
    * iteration, at ⟨current version, iteration⟩, iterations ascending.
    */
  private def collapse(r: Run): Unit = if (r != null) {
    merged.size = 0
    var iter = nextIter(r, -1)
    while (iter >= 0) {
      jAcc.clear()
      var k = 0
      while (k < r.size) {
        if (tsI(r.ts(k)) == iter) jAcc.add(if (r.dst == null) 0 else r.dst(k), r.value(k), r.mult(k))
        k += 1
      }
      k = 0
      while (k < jAcc.size) {
        if (jAcc.mult(k) != 0) merged.append(ts(version, iter), jAcc.key(k), jAcc.value(k), jAcc.mult(k))
        k += 1
      }
      iter = nextIter(r, iter)
    }
    r.copyFrom(merged)
  }

  /** The smallest iteration in `r` above `above`, or -1. */
  private def nextIter(r: Run, above: Int): Int = {
    var best = -1
    var k = 0
    while (k < r.size) {
      val i = tsI(r.ts(k))
      if (i > above && (best < 0 || i < best)) best = i
      k += 1
    }
    best
  }

  private def recountDiffs(): Unit = {
    var c = 0L
    var v = 0
    while (v < n) {
      if (dRuns(v) != null) c += dRuns(v).size
      if (jSrc(v) != null) c += jSrc(v).size
      v += 1
    }
    nDiffs = c
  }

  /** Total stored differences: δD + δJ + δE tuples (δJ counted once via the
    * source index; the dst-index mirror is the same data). O(1): maintained
    * incrementally on every write.
    */
  def diffCount: Long = eDiffCount + nDiffs

  def storedDiffCount: Long = diffCount
  def droppedCount: Long = 0L; def recomputeCount: Long = 0L

  /** Count of δJ difference tuples alone (the collection JOD eliminates). */
  def jDiffCount: Long = {
    var c = 0L
    var v = 0
    while (v < n) { if (jSrc(v) != null) c += jSrc(v).size; v += 1 }
    c
  }

  /** Bytes charged by the memory model (2-D diffs). */
  def memoryBytes: Long = diffCount * MemoryModel.Diff2dBytes

  /** Final states at the current version's horizon. */
  def currentStates(): Array[Double] = {
    val out = new Array[Double](n)
    var v = 0
    while (v < n) {
      val d = reassembleD(v, maxIterSeen)
      out(v) = if (d.isNaN) spec.init(v) else d
      v += 1
    }
    out
  }

  /** Test hook: append a raw δD difference at ⟨current version, iter⟩,
    * bypassing the operators. `iter` must be ≥ every iteration written in
    * the current version, so the run stays in timestamp order.
    */
  private[repro] def injectD(node: Int, iter: Int, value: Double, mult: Int): Unit =
    runOf(dRuns, node, withDst = false).append(ts(version, iter), 0, value, mult)
}

object Vdc {
  /** One node's run of differences in one collection: parallel primitive
    * arrays (timestamp, destination, value, multiplicity) in ascending
    * timestamp order; `dst` is null outside δJ by source.
    */
  private final class Run(withDst: Boolean) {
    var ts = new Array[Long](2)
    var dst: Array[Int] = if (withDst) new Array[Int](2) else null
    var value = new Array[Double](2)
    var mult = new Array[Int](2)
    var size = 0

    def append(t: Long, d: Int, v: Double, m: Int): Unit = {
      if (size == ts.length) resize(size * 2)
      ts(size) = t
      if (dst != null) dst(size) = d
      value(size) = v
      mult(size) = m
      size += 1
    }

    /** Index of the first entry at `t`, which must be the newest timestamp
      * of the run: entries at it form the tail.
      */
    def tailFrom(t: Long): Int = {
      var k = size
      while (k > 0 && ts(k - 1) == t) k -= 1
      k
    }

    /** Overwrite this run with `o`, which holds at most `size` entries. */
    def copyFrom(o: Run): Unit = {
      System.arraycopy(o.ts, 0, ts, 0, o.size)
      if (dst != null) System.arraycopy(o.dst, 0, dst, 0, o.size)
      System.arraycopy(o.value, 0, value, 0, o.size)
      System.arraycopy(o.mult, 0, mult, 0, o.size)
      size = o.size
    }

    private def resize(cap: Int): Unit = {
      ts = java.util.Arrays.copyOf(ts, cap)
      if (dst != null) dst = java.util.Arrays.copyOf(dst, cap)
      value = java.util.Arrays.copyOf(value, cap)
      mult = java.util.Arrays.copyOf(mult, cap)
    }
  }
}
