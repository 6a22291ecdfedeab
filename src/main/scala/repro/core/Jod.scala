package repro.core

import repro.graph.{BatchDelta, EdgeUpdate, EdgeVisitor, NodeVisitor}
import repro.util.{DiffList, Frontier, IntBuffer, LongDoubleMap, MemoryModel}

/** DC^JOD with eager merging (paper §4–§5): the differential engine that
  * completely drops the Join operator's differences and keeps only
  * one-dimensional, positive-only differences for the aggregation output D.
  *
  * Representation (Appendix C):
  *  - per-node sorted list of (iteration, state) pairs ([[DiffList]]);
  *    iteration 0 (the initial state) is implicit and never stored;
  *  - the frontier is a per-iteration bitset of nodes whose aggregation
  *    must rerun, drained in ascending node order ([[Frontier]]);
  *  - the join input J^v_i is reconstructed on demand by reading each
  *    in-neighbour w's D^w_{i-1} (and the edge), through [[Aggregation]].
  *
  * Scheduling rules of DC^JOD (§4.1), adapted to the one-dimensional
  * timestamps eager merging guarantees (§4.2):
  *  - δE direct rule: an updated edge (u, v) schedules v (all its view
  *    nodes) at iteration 1;
  *  - δD direct rule: a change of v at iteration i schedules every
  *    out-neighbour of v at i+1;
  *  - upper-bound rule: scheduling v at i also schedules v at every j > i
  *    where v has a stored *or dropped* difference, and at j+1 for every
  *    j ≥ i-1... precisely, at jw+1 for every stored/dropped difference of
  *    an in-neighbour at jw ≥ i-1. False positives of the probabilistic
  *    DroppedVT only add spurious (harmless) reruns here.
  *
  * Partial dropping (§5) plugs in through `policy` (which differences to
  * drop) and `droppedVT` (how dropped VT pairs are remembered); access to a
  * dropped difference recomputes it recursively (AccessD_i^v WithDrops,
  * §5.1.1), with a per-batch memo table so cascades stay polynomial. The
  * `recomputeCount` counter reports each dropped-difference recomputation
  * (the Fig 6b metric).
  *
  * Once its buffers have grown, a batch allocates nothing: one reusable
  * [[Aggregation]] serves every recompute, cascades included, and the
  * edge, neighbour and dropped-iteration walks go through reusable
  * visitors.
  */
final class Jod(
    val spec: IFESpec,
    val policy: DropPolicy = DropPolicy.KeepAll,
    val droppedVT: DroppedVT = null,
) extends Engine {
  require(spec.maxIters < (1 << 20),
    s"maxIters ${spec.maxIters} does not fit the 20-bit iteration of the packed (node, iteration) keys")

  private val view = spec.view
  private val n = view.numNodes

  /** Per-node eager-merged positive differences for D; `DiffList.Empty`
    * until the node's first stored difference.
    */
  private[repro] val diffs: Array[DiffList] = Array.fill(n)(DiffList.Empty)

  /** Highest iteration with a stored or dropped difference. */
  var maxIterSeen: Int = 0

  // ---- counters for the paper's metrics ----
  var storedDiffCount: Long = 0L
  var droppedCount: Long = 0L
  /** Dropped-difference recomputations (paper Fig 6b). */
  var recomputeCount: Long = 0L
  /** Per-node recomputation counts (only filled when `trackPerNode`). */
  var trackPerNode: Boolean = false
  lazy val perNodeRecomputes: Array[Long] = new Array[Long](n)
  var totalDiffsWritten: Long = 0L
  def jDiffCount: Long = 0L

  private val canDrop = droppedVT != null && (policy ne DropPolicy.KeepAll)

  // ---- per-batch transient state, reused across batches ----
  /** Memo of recomputed dropped differences, keyed by `key(node, iter)`;
    * set to `memoTable` (cleared) while a batch or a full read runs, null
    * otherwise and in engines that cannot drop.
    */
  private var memo: LongDoubleMap = null
  private val memoTable = if (canDrop) new LongDoubleMap else null
  private val frontier = new Frontier(n)
  /** node -> lowest i0 UB-scanned this batch (Int.MaxValue: not scanned). */
  private val scannedFrom: Array[Int] = {
    val a = new Array[Int](n); java.util.Arrays.fill(a, Int.MaxValue); a // Array.fill would box each Int
  }
  private val scanned = new IntBuffer // nodes whose scannedFrom is set
  private val seeds = new IntBuffer
  private var maxScheduled: Int = 0

  private val iterCap: Int = spec.maxIters

  @inline private def key(node: Int, iter: Int): Long = (node.toLong << 20) | iter.toLong

  /** Bytes charged by the memory model: stored diffs + DroppedVT. */
  def memoryBytes: Long =
    storedDiffCount * MemoryModel.DiffBytes +
      (if (droppedVT == null) 0L else droppedVT.sizeBytes)

  // ------------------------------------------------------------------
  // AccessD_i^v WithDrops (§5.1)
  // ------------------------------------------------------------------

  /** The state of `node` at iteration `i` (clamped to the known horizon),
    * recomputing through dropped differences when necessary.
    */
  def access(node: Int, i: Int): Double = {
    val d = droppedAt(node, i)
    if (d < 0) storedAt(node, i) else recomputeDropped(node, d)
  }

  /** The state from the stored differences alone: latest g* <= i, or init. */
  private def storedAt(node: Int, i: Int): Double =
    if (i <= 0) spec.init(node) else diffs(node).valueAt(i, spec.init(node))

  /** The latest (possibly) dropped iteration d* in (g*, i] that `access`
    * must recompute through, or -1 when the stored state stands.
    */
  private def droppedAt(node: Int, i: Int): Int =
    if (!canDrop || i <= 0) -1
    else droppedVT.latestIn(node, math.max(diffs(node).floorIter(i), 0), math.min(i, maxIterSeen))

  /** Recompute the dropped difference for (node, d): rerun the aggregation
    * at iteration d from the in-neighbours' states at d-1 (which may
    * recursively hit further dropped differences — the cascade of §5.1.1).
    */
  private def recomputeDropped(node: Int, d: Int): Double = {
    val k = key(node, d)
    if (memo != null && memo.contains(k)) return memo(k)
    recomputeCount += 1
    if (trackPerNode) perNodeRecomputes(node) += 1
    val v = recompute(node, d)
    if (memo != null) memo(k) = v
    v
  }

  /** D_i(node) from its in-neighbours' states at i - 1, read through
    * `access`. Cascades re-enter here; `level` is saved on the stack.
    */
  private def recompute(node: Int, i: Int): Double = {
    val outer = level
    level = i - 1
    val v = aggregation(node)
    level = outer
    v
  }
  private var level = 0
  private val aggregation = new Aggregation(spec) {
    protected def prev(w: Int): Double = access(w, level)
  }

  // ------------------------------------------------------------------
  // Scheduling (direct + upper-bound rules)
  // ------------------------------------------------------------------

  private def scheduleBasic(node: Int, i: Int): Unit = {
    if (i < 1 || i > iterCap) return
    frontier.add(i, node)
    if (i > maxScheduled) maxScheduled = i
  }

  /** Schedule `node` at j + `shift` for each stored or dropped difference
    * of `w` at an iteration j > `above`.
    */
  private def scheduleAtDiffs(node: Int, w: Int, above: Int, shift: Int): Unit = {
    val dl = diffs(w)
    var k = dl.floorIndex(above) + 1
    while (k < dl.size) { scheduleBasic(node, dl.iterAt(k) + shift); k += 1 }
    if (canDrop) {
      droppedNode = node; droppedShift = shift
      droppedVT.visitIters(w, above, maxIterSeen, scheduleDropped)
    }
  }
  private var droppedNode = 0
  private var droppedShift = 0
  private val scheduleDropped: IterVisitor = j => scheduleBasic(droppedNode, j + droppedShift)

  // The in-neighbour half of the upper-bound scan, as one reusable visitor:
  // scheduleWithUB sets the node and bound before each walk.
  private var ubNode = 0
  private var ubAbove = 0
  private val ubScan: EdgeVisitor = (w, _, _) => scheduleAtDiffs(ubNode, w, ubAbove, 1)

  /** Schedule node at i0 and apply the upper-bound rule: re-inspect every
    * later timestamp where the node itself or any in-neighbour has a stored
    * or dropped difference. This scan — reading in-neighbour state indexes
    * instead of materialized δJ — is exactly JOD's degree-proportional
    * overhead the paper measures in Fig 5.
    */
  private def scheduleWithUB(node: Int, i0: Int): Unit = {
    scheduleBasic(node, i0)
    val prev = scannedFrom(node)
    if (i0 >= prev) return
    if (prev == Int.MaxValue) scanned.add(node)
    scannedFrom(node) = i0
    // (i) own stored/dropped differences at j > i0
    scheduleAtDiffs(node, node, i0, 0)
    // (ii) in-neighbour differences at j ≥ i0-1 affect this node at j+1
    ubNode = node; ubAbove = i0 - 2
    view.visitIn(node, ubScan)
  }

  // ------------------------------------------------------------------
  // Diff writes (with partial dropping)
  // ------------------------------------------------------------------

  private def writeDiff(node: Int, i: Int, value: Double): Unit = {
    totalDiffsWritten += 1
    if (memo != null) memo.remove(key(node, i))
    val degree = if (canDrop) view.policyDegree(node) else 0
    if (canDrop && policy.shouldDrop(node, i, degree)) {
      if (diffs(node).remove(i)) storedDiffCount -= 1
      droppedVT.add(node, i)
      droppedCount += 1
    } else {
      var dl = diffs(node)
      if (dl eq DiffList.Empty) { dl = new DiffList; diffs(node) = dl }
      val before = dl.size
      dl.put(i, value)
      storedDiffCount += dl.size - before
    }
    if (i > maxIterSeen) maxIterSeen = i
  }

  // ------------------------------------------------------------------
  // Initial computation and differential maintenance
  // ------------------------------------------------------------------

  /** Run the IFE computation on the initial graph, recording (and possibly
    * dropping) the per-level differences.
    */
  def initialRun(): Unit = {
    val res = ScratchEngine.run(spec, withTrace = true)
    startMemo()
    var i = 1
    while (i < res.trace.size) {
      res.trace(i).foreach { case (v, nv) => writeDiff(v, i, nv) }
      i += 1
    }
    memo = null
  }

  /** Differentially maintain the computation for one batch of edge updates,
    * which the graph has already applied.
    */
  def absorb(delta: BatchDelta): Unit = {
    startMemo()
    maxScheduled = 0

    var k = 0
    while (k < delta.size) { seed(delta(k)); k += 1 }
    // δE direct rule + upper bounds; a repeated seed finds itself scanned.
    k = 0
    while (k < seeds.size) { scheduleWithUB(seeds(k), 1); k += 1 }
    seeds.clear()

    var i = 1
    while (i <= maxScheduled && i <= iterCap) {
      nextLevel = i + 1
      var v = frontier.poll(i)
      while (v >= 0) {
        val dropped = droppedAt(v, i)
        val old = if (dropped < 0) storedAt(v, i) else recomputeDropped(v, dropped)
        val nv = recompute(v, i)
        // Change detection. For stored representations, compare against the
        // stored value. When the old value resolves through a dropped
        // record, the record is self-maintaining (access recomputes the
        // current value), but the *pre-batch* value is unknowable — so we
        // conservatively treat (v, i) as changed whenever a (possibly)
        // dropped record sits at exactly i (a pre-batch trace change that
        // may have moved), or the recomputed value differs from the
        // previous level (a new trace change at i that needs covering).
        // When neither holds, the change question reduces to the level of
        // the dropped record itself, which its own scheduling handles —
        // this is what keeps full-drop cascades from never quiescing.
        val changed =
          if (dropped < 0) !spec.same(nv, old)
          else droppedVT.latestIn(v, i - 1, i) == i || !spec.same(nv, access(v, i - 1))
        if (changed) {
          writeDiff(v, i, nv)
          // δD direct rule: out-neighbours rerun at the next iteration.
          view.visitOutNodes(v, scheduleNext)
        }
        v = frontier.poll(i)
      }
      i += 1
    }
    k = 0
    while (k < scanned.size) { scannedFrom(scanned(k)) = Int.MaxValue; k += 1 }
    scanned.clear()
    memo = null
  }

  private def startMemo(): Unit = {
    memo = memoTable
    if (memo != null) memo.clear()
  }

  /** Seed the nodes an update touches (δE direct rule). PageRank: an edge
    * at u changes u's out-degree, hence its contribution to every old and
    * new out-neighbour; the graph holds the new ones, and an old one that
    * is gone lost its edge to a delete of this batch, which seeds it.
    */
  private def seed(u: EdgeUpdate): Unit = {
    if (spec.edgeTouchesAllOutNeighbours) {
      val srcs = view.touchedSrcs(u.src, u.dst, u.label)
      while (srcs.hasNext) view.visitOutNodes(srcs.next(), addSeed)
    }
    view.visitTouchedDsts(u.src, u.dst, u.label, addSeed)
  }
  private val addSeed: NodeVisitor = v => seeds.add(v)

  /** The level the δD direct rule schedules out-neighbours at. */
  private var nextLevel = 0
  private val scheduleNext: NodeVisitor = x => scheduleWithUB(x, nextLevel)

  /** Read-only view of a node's stored differences (iteration, state). */
  def diffEntries(node: Int): IndexedSeq[(Int, Double)] = diffs(node).entries

  /** Final states (at the current horizon) for every node. */
  def currentStates(): Array[Double] = statesAt(math.max(1, maxIterSeen))

  /** `access(v, i)` for every node v, sharing one memo across the read so
    * that dropped-difference cascades stay polynomial.
    */
  def statesAt(i: Int): Array[Double] = {
    startMemo()
    val out = new Array[Double](n)
    var v = 0
    while (v < n) { out(v) = access(v, i); v += 1 }
    memo = null
    out
  }
}
