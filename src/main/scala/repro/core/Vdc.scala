package repro.core

import scala.collection.mutable
import repro.graph.{BatchDelta, EdgeVisitor}
import repro.util.{Frontier, MemoryModel, Multiset}

/** Vanilla Differential Computation (paper §3.3) for the IFE dataflow —
  * the VDC baseline, with full two-dimensional ⟨graph-version k, IFE
  * iteration i⟩ timestamps and difference multisets for every collection:
  *
  *  - δD — output of the aggregation (Min/Sum) operator, per node;
  *  - δJ — output of the Join operator, read both by source (to diff a
  *    rerun against the source's accumulated output) and by destination
  *    (to reassemble the aggregation's input) — δJ is what JOD drops;
  *  - δE — edge updates (kept in the mutable graph; counted and traced).
  *
  * Operators rerun according to DC's direct and least-upper-bound rules;
  * since updates only ever arrive at the latest version K, every rerun
  * happens at timestamps ⟨K, i⟩, processed in ascending i.
  *
  * The difference sets are arranged traces (as in Differential Dataflow's
  * arrangements): δD and δJ are each one append-only [[Vdc.Log]] of
  * fixed-size primitive pages. Every δD entry links to the previous entry
  * of its node; every δJ entry is stored once and links to the previous
  * entry of its source and of its destination. One `Int` head per node and
  * chain (-1 for none) reaches the newest entry, so a chain walks a node's
  * differences newest first. Every write lands at ⟨K, i⟩ with K the newest
  * version, so a chain's version-K entries are its head. An accumulation
  * Σ_{s ≤ t} walks one chain into a reusable [[Multiset]]; a hub's long
  * destination chain is consolidated once into a summary (`arrange`).
  *
  * `mergeEvery = 0` never merges — pure VDC, whose per-node timestamp count
  * grows with every batch. `mergeEvery = M > 0` periodically merges the
  * version dimension like the DD system does (§4.2) — our stand-in for the
  * DD baseline (see DESIGN.md substitutions).
  */
final class Vdc(val spec: IFESpec, val mergeEvery: Int = 0, val captureTrace: Boolean = false) extends Engine {
  import Queries.INF
  import Vdc._

  require(spec.maxIters < (1 << 24),
    s"maxIters ${spec.maxIters} does not fit the 24-bit iteration of the packed ⟨version, iteration⟩ timestamps")

  private val view = spec.view
  private val n = view.numNodes

  /** Pack ⟨version, iteration⟩; every `Int` version fits above the 24-bit iteration. */
  @inline private def ts(k: Int, i: Int): Long = (k.toLong << 24) | i.toLong
  @inline private def tsK(t: Long): Int = (t >>> 24).toInt
  @inline private def tsI(t: Long): Int = (t & 0xffffffL).toInt

  /** δD: (ts, value) and (mult, previous entry of the node). */
  private var dLog = new Log(DInts)
  /** δJ: (ts, value) and (mult, source's previous, destination's previous, destination). */
  private var jLog = new Log(JInts)
  private var dHead = heads(n)
  private var srcHead = heads(n)
  private var dstHead = heads(n)

  private var version: Int = -1
  /** Highest iteration any version has run to. */
  var maxIterSeen: Int = 0
  private var eDiffCount: Long = 0L
  /** Destination summary entries in the δJ log (see `arrange`). */
  private var summaries: Long = 0L

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
  /** Per node, the last version whose Min / Join lubs were walked (version 0 has none). */
  private val minWalked = new Array[Int](n)
  private val joinWalked = new Array[Int](n)

  /** Readable trace accessors (iteration-major), for the Table 3 check. */
  def dDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] = traceD.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq
  def jDiffsAt(k: Int, i: Int): Seq[(Int, Double, Int)] = traceJ.getOrElse(ts(k, i), mutable.ArrayBuffer.empty).toSeq

  // ------------------------------------------------------------------
  // Logs and accumulations (Equations 1 and 2 of the paper)
  // ------------------------------------------------------------------

  private def appendD(node: Int, t: Long, value: Double, m: Int): Unit =
    dHead(node) = dLog.append(t, value, m, dHead(node), 0, 0)

  private def appendJ(src: Int, dst: Int, t: Long, value: Double, m: Int): Unit = {
    val e = jLog.append(t, value, m, srcHead(src), dstHead(dst), dst)
    srcHead(src) = e; dstHead(dst) = e
  }

  /** Add `sign` × every difference of the chain from `head` at an
    * iteration ≤ i to `acc`, keyed by destination if `keyed` and by 0
    * otherwise. Every stored timestamp has a version ≤ the current one, so
    * ⟨k, i'⟩ ≤ ⟨K, i⟩ reduces to i' ≤ i.
    */
  private def addUpTo(log: Log, head: Int, link: Int, keyed: Boolean, i: Int, sign: Int, acc: Multiset): Unit = {
    var e = head
    while (e >= 0) {
      if (tsI(log.ts(e)) <= i) acc.add(if (keyed) log.int(e, Dst) else 0, log.value(e), sign * log.int(e, Mult))
      e = log.int(e, link)
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
    addUpTo(dLog, dHead(node), Prev, keyed = false, i, 1, dAcc)
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

  /** Within a version each (node, iteration) reruns at most once, so the
    * chain of a rerun's output holds nothing at its timestamp yet.
    */
  private def requireFresh(log: Log, head: Int, t: Long, what: String, node: Int): Unit =
    if (head >= 0 && log.ts(head) >= t) throw new IllegalArgumentException(
      s"requirement failed: $what $node already holds a difference at ⟨${tsK(t)}, ${tsI(t)}⟩")

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

  // ------------------------------------------------------------------
  // Scheduling
  // ------------------------------------------------------------------

  private def schedule(f: Frontier, node: Int, i: Int): Unit = {
    if (i < 0 || i > iterCap) return
    f.add(i, node)
    if (i > maxScheduled) maxScheduled = i
  }

  /** The upper-bound rule: schedule `node` in `f` at i' + `shift` for every
    * earlier-version difference at iteration i' of the chain from `head`
    * whose i' + `shift` lies above i. The chain's version-K entries are its
    * head, so the walk skips them first. Earlier versions do not change
    * within version K and i only rises, so the first walk per node and
    * version (stamped in `walked`) schedules every later call's lubs too.
    */
  private def scheduleLubs(f: Frontier, walked: Array[Int], node: Int, log: Log, head: Int, link: Int,
                           K: Int, i: Int, shift: Int): Unit = {
    if (walked(node) == K) return
    walked(node) = K
    var e = head
    while (e >= 0 && tsK(log.ts(e)) == K) e = log.int(e, link)
    while (e >= 0) {
      val j = tsI(log.ts(e)) + shift
      if (j > i) schedule(f, node, j)
      e = log.int(e, link)
    }
  }

  /** Schedule Min(v) at ⟨K,i⟩ plus lubs with earlier-version δJ^v timestamps. */
  private def scheduleMin(v: Int, K: Int, i: Int): Unit = {
    schedule(minSched, v, i)
    scheduleLubs(minSched, minWalked, v, jLog, dstHead(v), PrevDst, K, i, shift = 0)
  }

  /** Schedule Join(u) at ⟨K,i⟩ plus lubs with earlier-version δD^u diffs. */
  private def scheduleJoin(u: Int, K: Int, i: Int): Unit = {
    schedule(joinSched, u, i)
    scheduleLubs(joinSched, joinWalked, u, dLog, dHead(u), Prev, K, i, shift = 1)
  }

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
    requireFresh(jLog, srcHead(u), t, "δJ of source", u)
    // New contributions of u at ⟨K, i⟩ from D^u at ⟨K, i-1⟩ and E_K.
    jAcc.clear()
    val dU = reassembleD(u, i - 1)
    if (!dU.isNaN && dU != INF) {
      joinSrc = u; joinState = dU
      view.visitOut(u, joinOut)
    }
    // δ = new − Σ_{s ≤ t} δ_s.
    addUpTo(jLog, srcHead(u), Prev, keyed = true, i, -1, jAcc)
    var k = 0
    while (k < jAcc.size) {
      val m = jAcc.mult(k)
      if (m != 0) {
        val dst = jAcc.key(k).toInt
        appendJ(u, dst, t, jAcc.value(k), m)
        if (captureTrace) traceJ.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((dst, jAcc.value(k), m))
        scheduleMin(dst, K, i)
      }
      k += 1
    }
  }

  private def rerunMin(v: Int, K: Int, i: Int): Unit = {
    val t = ts(K, i)
    requireFresh(dLog, dHead(v), t, "δD of node", v)
    // Iteration 0 is the initial-state injection (J carries no Join output
    // there); later iterations aggregate the accumulated Join input.
    val newD =
      if (i == 0) spec.init(v)
      else { jAcc.clear(); addUpTo(jLog, dstHead(v), PrevDst, keyed = false, i, 1, jAcc); aggregate(v, jAcc) }
    // Equation 2: δO_t = Op(...) − Σ_{s ≤ t} δO_s, as a FULL multiset
    // subtraction — across versions the accumulated set can transiently
    // hold several values with mixed multiplicities, all of which the new
    // difference must compensate.
    dAcc.clear()
    addUpTo(dLog, dHead(v), Prev, keyed = false, i, 1, dAcc)
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
        appendD(v, t, dAcc.value(k), m)
        wrote = true
        if (captureTrace) traceD.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((v, dAcc.value(k), m))
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
    if (captureTrace)
      traceE(ts(0, 0)) = view.graph.edgeList.map { case (s, d, w, _) => (s, d, w, 1) }.to(mutable.ArrayBuffer)
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
    arrange()
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
          traceE.getOrElseUpdate(ts(K, 0), mutable.ArrayBuffer.empty) += ((u.src, u.dst, u.weight, if (u.add) 1 else -1))
        eDiffCount += 1
        // δE direct rule + lub with every existing δD^u iteration: Join(u)
        // rerun at ⟨K, j+1⟩ for each iteration j at which D^u has a difference.
        val srcs = view.touchedSrcs(u.src, u.dst, u.label)
        while (srcs.hasNext) {
          val s = srcs.next()
          scheduleLubs(joinSched, joinWalked, s, dLog, dHead(s), Prev, K, 0, shift = 1)
        }
      }
      b += 1
    }
    processVersion(K)
    if (mergeEvery > 0 && K % mergeEvery == 0) mergeVersions()
  }

  /** Merge the version dimension: rebuild both logs with one consolidated
    * difference set per (node, iteration) row — per (source, destination,
    * value) for δJ — at the current version (the DD periodic-merging
    * optimization, §4.2).
    */
  def mergeVersions(): Unit = {
    val (d, j, dh, sh) = (dLog, jLog, dHead, srcHead)
    dLog = new Log(DInts); jLog = new Log(JInts)
    dHead = heads(n); srcHead = heads(n); dstHead = heads(n)
    for (v <- 0 until n) { collapse(d, dh(v), Prev, v, isJ = false); collapse(j, sh(v), Prev, v, isJ = true) }
    arrange()
  }

  /** Arrange the δJ log once every timestamp has the current version
    * (after the initial run and after a merge), both of which write δJ in
    * source order, one entry of a destination to a cache line:
    *  - lay it out by destination, each destination's entries contiguous
    *    and newest first (a counting sort by destination, then one gather);
    *  - replace each destination chain that consolidates at least 2× (a
    *    hub's, of mostly equal values) by its net multiplicity per
    *    (iteration, value), zeros kept for the upper-bound rule, appended as
    *    δJ entries on no source chain.
    */
  private def arrange(): Unit = {
    val old = jLog
    val next = new Array[Int](n + 1) // per destination, its next new index
    for (e <- 0 until old.size) next(old.int(e, Dst) + 1) += 1
    for (v <- 0 until n) next(v + 1) += next(v)
    val at = new Array[Int](old.size) // old index -> new
    val order = new Array[Int](old.size) // new index -> old
    for (e <- old.size - 1 to 0 by -1) { val v = old.int(e, Dst); at(e) = next(v); order(next(v)) = e; next(v) += 1 }
    def moved(e: Int): Int = if (e < 0) -1 else at(e)
    jLog = new Log(JInts)
    for (e <- order) jLog.append(old.ts(e), old.value(e), old.int(e, Mult), moved(old.int(e, Prev)),
      moved(old.int(e, PrevDst)), old.int(e, Dst))
    summaries = 0
    for (v <- 0 until n) {
      srcHead(v) = moved(srcHead(v)); dstHead(v) = moved(dstHead(v))
      jAcc.clear()
      var e = dstHead(v)
      while (e >= 0) { jAcc.add(tsI(jLog.ts(e)), jLog.value(e), jLog.int(e, Mult)); e = jLog.int(e, PrevDst) }
      if (2 * jAcc.size <= next(v) - (if (v == 0) 0 else next(v - 1))) {
        dstHead(v) = -1
        for (k <- 0 until jAcc.size)
          dstHead(v) = jLog.append(ts(version, jAcc.key(k).toInt), jAcc.value(k), jAcc.mult(k), -1, dstHead(v), v)
        summaries += jAcc.size
      }
    }
  }

  /** Append node's chain from `head` in `log` to the current logs, one
    * difference per (iteration, destination, value) row.
    */
  private def collapse(log: Log, head: Int, link: Int, node: Int, isJ: Boolean): Unit = {
    jAcc.clear()
    var e = head
    while (e >= 0) {
      jAcc.add(tsI(log.ts(e)).toLong << 32 | (if (isJ) log.int(e, Dst) else 0), log.value(e), log.int(e, Mult))
      e = log.int(e, link)
    }
    for (k <- 0 until jAcc.size if jAcc.mult(k) != 0) {
      val t = ts(version, (jAcc.key(k) >>> 32).toInt)
      if (isJ) appendJ(node, jAcc.key(k).toInt, t, jAcc.value(k), jAcc.mult(k))
      else appendD(node, t, jAcc.value(k), jAcc.mult(k))
    }
  }

  /** Total stored differences: δD + δJ + δE tuples. */
  def diffCount: Long = eDiffCount + dLog.size + jDiffCount

  def storedDiffCount: Long = diffCount
  def droppedCount: Long = 0L; def recomputeCount: Long = 0L

  /** Count of δJ difference tuples alone (the collection JOD eliminates). */
  def jDiffCount: Long = jLog.size - summaries

  /** Bytes charged by the memory model (2-D diffs). */
  def memoryBytes: Long = diffCount * MemoryModel.Diff2dBytes

  /** Bytes the logs' pages and the chain heads hold, from their capacities. */
  def reservedBytes: Long = dLog.reservedBytes + jLog.reservedBytes + 3L * 4 * n

  /** D_i(v) read from the stored δD for every node v, `Init(v)` where the
    * node has no state.
    */
  private[repro] def statesAt(i: Int): Array[Double] = {
    val out = new Array[Double](n)
    var v = 0
    while (v < n) {
      val d = reassembleD(v, i)
      out(v) = if (d.isNaN) spec.init(v) else d
      v += 1
    }
    out
  }

  /** Walk every chain: (δD entries, δJ entries by source, by destination,
    * Σ δJ multiplicity by source, by destination).
    */
  private[repro] def chainTotals: Seq[Long] = {
    def walk(log: Log, heads: Array[Int], link: Int, field: Int): Long = heads.map { h =>
      var c = 0L; var e = h; while (e >= 0) { c += (if (field < 0) 1 else log.int(e, field)); e = log.int(e, link) }; c
    }.sum
    Seq(walk(dLog, dHead, Prev, -1), walk(jLog, srcHead, Prev, -1), walk(jLog, dstHead, PrevDst, -1),
      walk(jLog, srcHead, Prev, Mult), walk(jLog, dstHead, PrevDst, Mult))
  }

  /** Final states at the current version's horizon. */
  def currentStates(): Array[Double] = statesAt(maxIterSeen)

  /** Test hooks: append a raw δD or δJ difference at ⟨k, iter⟩, bypassing
    * the operators. ⟨k, iter⟩ must not precede the newest timestamp on the
    * chains it joins.
    */
  private[repro] def injectD(node: Int, iter: Int, value: Double, mult: Int, k: Int = version): Unit =
    appendD(node, ts(k, iter), value, mult)
  private[repro] def injectJ(src: Int, dst: Int, iter: Int, value: Double, mult: Int, k: Int): Unit =
    appendJ(src, dst, ts(k, iter), value, mult)
}

object Vdc {
  // The Int fields of a log entry: δD entries hold the first two, δJ all
  // four. Prev links to the previous entry of the δD node or δJ source.
  private final val Mult = 0
  private final val Prev = 1
  private final val PrevDst = 2
  private final val Dst = 3
  private final val DInts = 2
  private final val JInts = 4

  private final val PageBits = 10
  private final val PageSize = 1 << PageBits
  private final val PageMask = PageSize - 1

  private def heads(n: Int): Array[Int] = { val h = new Array[Int](n); java.util.Arrays.fill(h, -1); h }

  /** An append-only log of differences in pages of `PageSize` entries: entry
    * e is `stride` longs at slot e & PageMask of page e >>> PageBits (its
    * timestamp, its value's bits and its `Int` fields two to a long). Growth
    * adds a page and never copies one, so the slack is under one page.
    */
  private final class Log(ints: Int) {
    private val stride = 2 + ints / 2
    private var pages = new Array[Array[Long]](0)
    private var pageCount = 0
    var size = 0

    @inline private def at(e: Int, word: Int): Long = pages(e >>> PageBits)((e & PageMask) * stride + word)
    def ts(e: Int): Long = at(e, 0)
    def value(e: Int): Double = java.lang.Double.longBitsToDouble(at(e, 1))
    def int(e: Int, field: Int): Int = (at(e, 2 + (field >> 1)) >> (32 - 32 * (field & 1))).toInt

    /** Append an entry with the first `ints` of f0–f3 as its `Int` fields; return its index. */
    def append(t: Long, v: Double, f0: Int, f1: Int, f2: Int, f3: Int): Int = {
      if (size == pageCount << PageBits) addPage()
      val p = pages(size >>> PageBits)
      val o = (size & PageMask) * stride
      p(o) = t
      p(o + 1) = java.lang.Double.doubleToRawLongBits(v)
      p(o + 2) = pack(f0, f1)
      if (ints > 2) p(o + 3) = pack(f2, f3)
      size += 1
      size - 1
    }

    def reservedBytes: Long = pageCount.toLong * PageSize * stride * 8

    private def pack(hi: Int, lo: Int): Long = (hi.toLong << 32) | (lo & 0xffffffffL)

    private def addPage(): Unit = {
      if (pageCount == pages.length) pages = java.util.Arrays.copyOf(pages, math.max(4, pageCount * 2))
      pages(pageCount) = new Array[Long](PageSize * stride)
      pageCount += 1
    }
  }
}
