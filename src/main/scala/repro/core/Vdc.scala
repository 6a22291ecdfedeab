package repro.core

import scala.collection.mutable
import repro.graph.EdgeUpdate
import repro.util.MemoryModel

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
  * `mergeEvery = 0` never merges — pure VDC, whose per-node timestamp count
  * grows with every batch. `mergeEvery = M > 0` periodically merges the
  * version dimension like the DD system does (§4.2) — our stand-in for the
  * DD baseline (see DESIGN.md substitutions).
  */
final class Vdc(val spec: IFESpec, val mergeEvery: Int = 0, val captureTrace: Boolean = false) {
  import Queries.INF

  private val view = spec.view
  private val n = view.numNodes

  /** Pack ⟨version, iteration⟩; iteration capped far below 2^24. */
  @inline private def ts(k: Int, i: Int): Long = (k.toLong << 24) | i.toLong
  @inline private def tsK(t: Long): Int = (t >>> 24).toInt
  @inline private def tsI(t: Long): Int = (t & 0xffffffL).toInt
  @inline private def leq(t: Long, k: Int, i: Int): Boolean = tsK(t) <= k && tsI(t) <= i

  private type VMultiset = mutable.HashMap[Double, Int]
  private type CMultiset = mutable.HashMap[(Int, Double), Int]

  private val dDiffs: Array[mutable.LongMap[VMultiset]] =
    Array.fill(n)(new mutable.LongMap[VMultiset]())
  private val jSrc: Array[mutable.LongMap[CMultiset]] =
    Array.fill(n)(new mutable.LongMap[CMultiset]())
  private val jDst: Array[mutable.LongMap[VMultiset]] =
    Array.fill(n)(new mutable.LongMap[VMultiset]())

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

  // per-version scheduling state
  private var joinSched: mutable.LongMap[mutable.HashSet[Int]] = null
  private var minSched: mutable.LongMap[mutable.HashSet[Int]] = null
  private var maxScheduled: Int = 0
  private val iterCap: Int = spec.maxIters

  /** Running per-node accumulations for the version being processed.
    * Within one version, Min reruns on a node happen at ascending
    * iterations and all writes land at the current iteration, so the
    * accumulated input (J) and output (D) multisets can be extended
    * incrementally instead of re-summed from the full 2-D history at every
    * rerun — the arrangement-style consolidation real DC systems rely on.
    */
  private final class AccState(var lastIter: Int, val ms: VMultiset)
  private var accJ: mutable.LongMap[AccState] = null
  private var accD: mutable.LongMap[AccState] = null

  /** Accumulate `store(node)` over timestamps with iteration ≤ i into the
    * per-version cache (building it on first use, extending it after).
    */
  private def accumulate(cache: mutable.LongMap[AccState],
                         store: Array[mutable.LongMap[VMultiset]],
                         node: Int, i: Int): VMultiset = {
    var st = cache.getOrNull(node.toLong)
    if (st == null || st.lastIter > i) {
      st = new AccState(i, new VMultiset)
      store(node).foreachEntry { (t, ms) =>
        if (tsI(t) <= i) ms.foreach { case (v, m) => st.ms.update(v, st.ms.getOrElse(v, 0) + m) }
      }
      st.ms.filterInPlace((_, m) => m != 0)
      cache(node.toLong) = st
    } else if (st.lastIter < i) {
      val lo = st.lastIter
      store(node).foreachEntry { (t, ms) =>
        val ti = tsI(t)
        if (ti > lo && ti <= i) ms.foreach { case (v, m) => st.ms.update(v, st.ms.getOrElse(v, 0) + m) }
      }
      st.ms.filterInPlace((_, m) => m != 0)
      st.lastIter = i
    }
    st.ms
  }

  /** Readable trace accessors (iteration-major), for the Table 3 check. */
  def dDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] =
    traceD.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq
  def jDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] =
    traceJ.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq

  // ------------------------------------------------------------------
  // Reassembly (Equations 1 and 2 of the paper)
  // ------------------------------------------------------------------

  /** Reassemble D^node at ⟨k, i⟩: sum all differences at timestamps ≤ ⟨k,i⟩.
    * Returns NaN if the node has no state yet.
    */
  private def reassembleD(node: Int, k: Int, i: Int): Double = {
    if (i < 0) return Double.NaN
    var value = Double.NaN
    var best = 0
    val acc = new VMultiset
    dDiffs(node).foreachEntry { (t, ms) =>
      if (leq(t, k, i)) ms.foreach { case (v, m) => acc.update(v, acc.getOrElse(v, 0) + m) }
    }
    acc.foreach { case (v, m) => if (m > 0 && best == 0) { value = v; best = m } }
    value
  }

  /** Aggregate a J multiset and combine with init — D = Agg(J) ∪ init. */
  private def aggregate(node: Int, j: VMultiset): Double = {
    var acc = spec.aggZero
    j.foreach { case (v, m) =>
      var c = m
      while (c > 0) { acc = spec.agg(acc, v); c -= 1 }
    }
    spec.finish(acc, spec.init(node))
  }

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------

  private def schedule(map: mutable.LongMap[mutable.HashSet[Int]], node: Int, i: Int): Unit = {
    if (i < 0 || i > iterCap) return
    map.getOrElseUpdate(i.toLong, mutable.HashSet.empty[Int]) += node
    if (i > maxScheduled) maxScheduled = i
  }

  /** Schedule Min(v) at ⟨K,i⟩ plus least-upper-bounds with earlier-version
    * δJ^v timestamps (the upper-bound rule).
    */
  private def scheduleMin(v: Int, K: Int, i: Int): Unit = {
    schedule(minSched, v, i)
    jDst(v).foreachKey { t => if (tsK(t) < K && tsI(t) > i) schedule(minSched, v, tsI(t)) }
  }

  /** Schedule Join(u) at ⟨K,i⟩ plus lubs with earlier-version δD^u diffs. */
  private def scheduleJoin(u: Int, K: Int, i: Int): Unit = {
    schedule(joinSched, u, i)
    dDiffs(u).foreachKey { t => if (tsK(t) < K && tsI(t) + 1 > i) schedule(joinSched, u, tsI(t) + 1) }
  }

  // ------------------------------------------------------------------
  // Operator reruns
  // ------------------------------------------------------------------

  private def rerunJoin(u: Int, K: Int, i: Int): Unit = {
    val t = ts(K, i)
    // Retract any diff previously written at this exact timestamp (overwrite
    // semantics): remove from the source index and from the dst mirrors.
    val dirtyDsts = mutable.HashSet.empty[Int]
    jSrc(u).remove(t).foreach { old =>
      nDiffs -= old.size
      old.foreach { case ((dst, v), m) =>
        val ms = jDst(dst).getOrElseUpdate(t, new VMultiset)
        ms.update(v, ms.getOrElse(v, 0) - m)
        if (ms(v) == 0) ms.remove(v)
        dirtyDsts += dst
      }
    }
    // New contributions of u at ⟨K, i⟩ from D^u at ⟨K, i-1⟩ and E_K.
    val dU = reassembleD(u, K, i - 1)
    val newC = new CMultiset
    if (!dU.isNaN && dU != INF) {
      val it = view.outEdges(u)
      while (it.hasNext) {
        val (dst, w, l) = it.next()
        val c = spec.contrib(u, dU, w, l)
        if (c != INF) newC.update((dst, c), newC.getOrElse((dst, c), 0) + 1)
      }
    }
    // δ = new − Σ_{s ≤ t} δ_s (t itself already retracted above).
    val delta = newC
    jSrc(u).foreachEntry { (s, ms) =>
      if (leq(s, K, i)) ms.foreach { case (kv, m) => delta.update(kv, delta.getOrElse(kv, 0) - m) }
    }
    delta.filterInPlace((_, m) => m != 0)
    if (delta.nonEmpty) {
      jSrc(u)(t) = delta.clone()
      nDiffs += delta.size
      delta.foreach { case ((dst, v), m) =>
        val ms = jDst(dst).getOrElseUpdate(t, new VMultiset)
        ms.update(v, ms.getOrElse(v, 0) + m)
        if (ms(v) == 0) ms.remove(v)
        dirtyDsts += dst
        if (captureTrace)
          traceJ.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((dst, v, m))
      }
    }
    dirtyDsts.foreach(dst => scheduleMin(dst, K, i))
  }

  private def rerunMin(v: Int, K: Int, i: Int): Unit = {
    val t = ts(K, i)
    // Retract existing diff at exactly t (overwrite semantics). Within a
    // version each (v, i) is rerun at most once, so nothing from THIS
    // version can be stored at t; the remove is a guard for idempotence.
    dDiffs(v).remove(t).foreach(old => nDiffs -= old.size)
    // Iteration 0 is the initial-state injection (J carries no Join output
    // there); later iterations aggregate the accumulated Join input.
    val newD = if (i == 0) spec.init(v) else aggregate(v, accumulate(accJ, jDst, v, i))
    // Equation 2: δO_t = Op(...) − Σ_{s ≤ t} δO_s, as a FULL multiset
    // subtraction — across versions the accumulated set can transiently
    // hold several values with mixed multiplicities, all of which the new
    // difference must compensate.
    val acc = accumulate(accD, dDiffs, v, i)
    // Suppress no-op diffs (within spec.same tolerance) only when the
    // accumulation is already the clean singleton {old: +1}.
    val unchanged = acc.size == 1 && acc.head._2 == 1 && spec.same(acc.head._1, newD)
    if (!unchanged) {
      val delta = acc.map { case (value, m) => (value, -m) }
      delta.update(newD, delta.getOrElse(newD, 0) + 1)
      delta.filterInPlace((_, m) => m != 0)
      if (delta.nonEmpty) {
        dDiffs(v)(t) = delta
        nDiffs += delta.size
        // keep the running accumulation coherent: the cache was extended to
        // iteration i *before* this write, so fold the new delta in by hand.
        delta.foreach { case (value, m) => acc.update(value, acc.getOrElse(value, 0) + m) }
        acc.filterInPlace((_, m) => m != 0)
        if (captureTrace) delta.foreach { case (value, m) =>
          traceD.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((v, value, m))
        }
        if (i > maxIterSeen) maxIterSeen = i
        // δD direct rule: Join(v) consumes D^v at i, producing output at i+1,
        // plus lubs with earlier-version δD^v (handled inside scheduleJoin).
        scheduleJoin(v, K, i + 1)
      }
    }
  }

  private def processVersion(K: Int): Unit = {
    accJ = new mutable.LongMap[AccState]()
    accD = new mutable.LongMap[AccState]()
    var i = 0
    while (i <= maxScheduled && i <= iterCap) {
      val js = joinSched.remove(i.toLong).orNull
      if (js != null) js.foreach(u => rerunJoin(u, K, i))
      val ms = minSched.remove(i.toLong).orNull
      if (ms != null) ms.foreach(v => rerunMin(v, K, i))
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
    joinSched = new mutable.LongMap(); minSched = new mutable.LongMap(); maxScheduled = 0
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

  /** Maintain the computation for one batch of edge updates (version k+1). */
  def applyBatch(batch: Seq[EdgeUpdate]): Unit = {
    require(version >= 0, "call initialRun first")
    version += 1
    val K = version
    joinSched = new mutable.LongMap(); minSched = new mutable.LongMap(); maxScheduled = 0
    val srcs = mutable.HashSet.empty[Int]
    batch.foreach { u =>
      // Deleting an absent edge changes nothing: no δE, no reruns.
      val changed =
        if (u.add) { view.graph.addEdge(u.src, u.dst, u.weight, u.label); true }
        else view.graph.removeEdge(u.src, u.dst, u.weight, u.label)
      if (changed) {
        if (captureTrace)
          traceE.getOrElseUpdate(ts(K, 0), mutable.ArrayBuffer.empty) +=
            ((u.src, u.dst, u.weight, if (u.add) 1 else -1))
        eDiffCount += 1
        srcs ++= view.touchedSrcs(u.src, u.dst, u.label)
      }
    }
    // δE direct rule + lub with every existing δD^u iteration: Join(u)
    // rerun at ⟨K, j+1⟩ for each iteration j at which D^u has a difference.
    srcs.foreach { u =>
      val iters = mutable.HashSet.empty[Int]
      dDiffs(u).foreachKey(t => iters += tsI(t))
      iters.foreach(j => schedule(joinSched, u, j + 1))
    }
    processVersion(K)
    if (mergeEvery > 0 && K % mergeEvery == 0) mergeVersions()
  }

  /** Merge the version dimension: union all difference sets per (node,
    * iteration) row into a single diff at the current version (the DD
    * periodic-merging optimization, §4.2).
    */
  def mergeVersions(): Unit = {
    def mergeMapV(m: mutable.LongMap[VMultiset]): Unit = {
      val byIter = mutable.LongMap.empty[VMultiset]
      m.foreachEntry { (t, ms) =>
        val acc = byIter.getOrElseUpdate(tsI(t).toLong, new VMultiset)
        ms.foreach { case (v, c) => acc.update(v, acc.getOrElse(v, 0) + c) }
      }
      m.clear()
      byIter.foreachEntry { (i, ms) =>
        ms.filterInPlace((_, c) => c != 0)
        if (ms.nonEmpty) m(ts(version, i.toInt)) = ms
      }
    }
    def mergeMapC(m: mutable.LongMap[CMultiset]): Unit = {
      val byIter = mutable.LongMap.empty[CMultiset]
      m.foreachEntry { (t, ms) =>
        val acc = byIter.getOrElseUpdate(tsI(t).toLong, new CMultiset)
        ms.foreach { case (kv, c) => acc.update(kv, acc.getOrElse(kv, 0) + c) }
      }
      m.clear()
      byIter.foreachEntry { (i, ms) =>
        ms.filterInPlace((_, c) => c != 0)
        if (ms.nonEmpty) m(ts(version, i.toInt)) = ms
      }
    }
    var v = 0
    while (v < n) {
      mergeMapV(dDiffs(v)); mergeMapV(jDst(v)); mergeMapC(jSrc(v))
      v += 1
    }
    recountDiffs()
  }

  private def recountDiffs(): Unit = {
    var c = 0L
    var v = 0
    while (v < n) {
      dDiffs(v).foreachValue(ms => c += ms.size)
      jSrc(v).foreachValue(ms => c += ms.size)
      v += 1
    }
    nDiffs = c
  }

  /** Total stored differences: δD + δJ + δE tuples (δJ counted once via the
    * source index; the dst-index mirror is the same data). O(1): maintained
    * incrementally on every write.
    */
  def diffCount: Long = eDiffCount + nDiffs

  /** Count of δJ difference tuples alone (the collection JOD eliminates). */
  def jDiffCount: Long = {
    var c = 0L
    var v = 0
    while (v < n) { jSrc(v).foreachValue(ms => c += ms.size); v += 1 }
    c
  }

  /** Bytes charged by the memory model (2-D diffs). */
  def memoryBytes: Long = diffCount * MemoryModel.Diff2dBytes

  /** Final states at the current version's horizon. */
  def currentStates(): Array[Double] = {
    val out = new Array[Double](n)
    var v = 0
    while (v < n) {
      val d = reassembleD(v, version, maxIterSeen)
      out(v) = if (d.isNaN) spec.init(v) else d
      v += 1
    }
    out
  }
}
