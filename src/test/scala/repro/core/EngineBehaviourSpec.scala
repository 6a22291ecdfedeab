package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.graph._
import repro.util.MemoryModel

/** White-box behaviour of the engines: representation invariants, memory
  * accounting, merging, recompute counting — the levers behind every
  * experiment in §6.
  */
class EngineBehaviourSpec extends AnyFunSuite {

  private def randomDyn(seed: Int, nV: Int = 30, nE: Int = 80, nUp: Int = 16):
      (DynamicGraph, Vector[EdgeUpdate]) = {
    val rnd = new Random(seed)
    val g = new DynamicGraph(nV)
    val live = collection.mutable.ArrayBuffer.empty[(Int, Int, Int)]
    (0 until nE).foreach { _ =>
      val s = rnd.nextInt(nV); var d = rnd.nextInt(nV); if (d == s) d = (d + 1) % nV
      val w = 1 + rnd.nextInt(10)
      g.addEdge(s, d, w); live += ((s, d, w))
    }
    val ups = Vector.fill(nUp) {
      if (rnd.nextDouble() < 0.3 && live.nonEmpty) {
        val i = rnd.nextInt(live.size); val (s, d, w) = live.remove(i)
        EdgeUpdate(s, d, w, 0, add = false)
      } else {
        val s = rnd.nextInt(nV); var d = rnd.nextInt(nV); if (d == s) d = (d + 1) % nV
        val w = 1 + rnd.nextInt(10); live += ((s, d, w))
        EdgeUpdate(s, d, w, 0, add = true)
      }
    }
    (g, ups)
  }

  test("JOD representation invariant: every (node, iteration) floor equals the scratch trace") {
    for (seed <- 1 to 5) {
      val (g, ups) = randomDyn(seed)
      val jod = new Jod(Queries.sssp(g, 0))
      jod.initialRun()
      ups.grouped(4).foreach(b => jod.applyBatch(b))
      // reference: full per-level trace of the final graph
      val ref = ScratchEngine.run(Queries.sssp(g, 0), withTrace = true)
      val levels = ref.trace.size
      val states = Array.fill(g.numVertices)(Queries.INF)
      for (i <- 0 until math.max(levels, jod.maxIterSeen + 1)) {
        if (i < levels) ref.trace(i).foreach { case (v, nv) => states(v) = nv }
        (0 until g.numVertices).foreach { v =>
          assert(jod.access(v, i) == states(v), s"seed $seed node $v iter $i")
        }
      }
    }
  }

  test("JOD storedDiffCount equals the sum of diff-list sizes") {
    val (g, ups) = randomDyn(7)
    val jod = new Jod(Queries.sssp(g, 0))
    jod.initialRun()
    ups.grouped(2).foreach(b => jod.applyBatch(b))
    assert(jod.storedDiffCount == jod.diffs.map(_.size.toLong).sum)
    assert(jod.memoryBytes == jod.storedDiffCount * MemoryModel.DiffBytes)
  }

  test("dropping reduces stored diffs and is reflected in memory accounting") {
    val (g1, ups1) = randomDyn(9)
    val plain = new Jod(Queries.sssp(g1, 0))
    plain.initialRun(); ups1.grouped(2).foreach(b => plain.applyBatch(b))

    val (g2, ups2) = randomDyn(9)
    val det = new Jod(Queries.sssp(g2, 0), DropPolicy.Random(0.5, 3), new DetDroppedVT)
    det.initialRun(); ups2.grouped(2).foreach(b => det.applyBatch(b))

    // Dropped differences are not stored; conservative re-writes after
    // drop-resolved accesses can add entries, so <= is the hard invariant
    // (the big-graph benches show the large actual reductions).
    assert(det.storedDiffCount <= plain.storedDiffCount)
    assert(det.droppedCount > 0)
    assert(det.memoryBytes ==
      det.storedDiffCount * MemoryModel.DiffBytes + det.droppedVT.sizeBytes)
  }

  test("recomputations happen under dropping and are counted") {
    val (g, ups) = randomDyn(11)
    val det = new Jod(Queries.sssp(g, 0), DropPolicy.Random(0.6, 5), new DetDroppedVT)
    det.initialRun()
    ups.grouped(1).foreach(b => det.applyBatch(b))
    det.currentStates()
    assert(det.recomputeCount > 0)
  }

  test("per-node recompute tracking fills when enabled") {
    val (g, ups) = randomDyn(13)
    val det = new Jod(Queries.khop(g, 0, 5), DropPolicy.Random(0.7, 5), new DetDroppedVT)
    det.trackPerNode = true
    det.initialRun()
    ups.grouped(1).foreach(b => det.applyBatch(b))
    det.currentStates()
    assert(det.perNodeRecomputes.sum == det.recomputeCount)
  }

  test("VDC merging preserves states and reduces or keeps diff count") {
    val (g, ups) = randomDyn(15)
    val vdc = new Vdc(Queries.sssp(g, 0))
    vdc.initialRun()
    ups.grouped(2).foreach(b => vdc.applyBatch(b))
    val statesBefore = vdc.currentStates().toSeq
    val diffsBefore = vdc.diffCount
    vdc.mergeVersions()
    assert(vdc.currentStates().toSeq == statesBefore)
    assert(vdc.diffCount <= diffsBefore)
    // maintenance still works after an explicit merge (engine mutates g)
    vdc.applyBatch(Seq(EdgeUpdate(0, 1, 3, 0, add = true)))
    assert(vdc.currentStates().toSeq == ScratchEngine.states(Queries.sssp(g, 0)).toSeq)
  }

  test("VDC incremental diff count matches a full recount across batches and merges") {
    val (g, ups) = randomDyn(23, nUp = 20)
    val vdc = new Vdc(Queries.sssp(g, 0), mergeEvery = 4)
    vdc.initialRun()
    var eDiffs = 0L
    // recount by walking every chain: each δJ entry is on one source chain,
    // and the destination chains, summaries included, hold the same total
    // multiplicity in at most as many entries
    def walked(): Long = {
      val Seq(d, bySrc, byDst, multBySrc, multByDst) = vdc.chainTotals
      assert(bySrc == vdc.jDiffCount && byDst <= bySrc && multByDst == multBySrc)
      d + bySrc + eDiffs
    }
    def fullCount(): Long = {
      assert(walked() == vdc.diffCount)
      // and recount through a merge
      val before = vdc.diffCount
      vdc.mergeVersions()
      val after = vdc.diffCount
      assert(after <= before, "merge may only shrink the count")
      assert(walked() == after)
      after
    }
    ups.grouped(3).foreach { b =>
      val delta = g.apply(b)
      eDiffs += (0 until delta.size).count(delta.tookEffect)
      vdc.absorb(delta)
      val inc = vdc.diffCount
      val recounted = fullCount()
      assert(recounted <= inc)
      assert(vdc.currentStates().toSeq == ScratchEngine.states(Queries.sssp(g, 0)).toSeq)
    }
  }

  test("VDC summarizes a destination chain of many equal contributions and stays exact") {
    // 0 -> 1..20 -> 21, all weight 1: Min(21) reads 20 equal δJ entries
    val g = new DynamicGraph(22)
    (1 to 20).foreach { v => g.addEdge(0, v, 1); g.addEdge(v, 21, 1) }
    val vdc = new Vdc(Queries.sssp(g, 0), captureTrace = true)
    vdc.initialRun()
    val Seq(_, bySrc, byDst, multBySrc, multByDst) = vdc.chainTotals
    assert(byDst < bySrc && multByDst == multBySrc, vdc.chainTotals)
    assert(vdc.jDiffCount == vdc.traceJ.values.map(_.size).sum)
    val batches = Seq(
      Seq(EdgeUpdate(0, 21, 5, 0, add = true)), Seq(EdgeUpdate(0, 21, 5, 0, add = false)),
      (1 to 19).map(v => EdgeUpdate(v, 21, 1, 0, add = false)), Seq(EdgeUpdate(20, 21, 1, 0, add = false)))
    batches.foreach { b =>
      vdc.applyBatch(b)
      assert(vdc.currentStates().toSeq == ScratchEngine.states(Queries.sssp(g, 0)).toSeq)
      assert(vdc.jDiffCount == vdc.traceJ.values.map(_.size).sum)
    }
  }

  test("VDC's logs reserve at most 1.5x the modelled bytes plus the chain heads") {
    val rnd = new Random(3)
    val nv = 2000
    val g = new DynamicGraph(nv)
    (0 until 8000).foreach(_ => g.addEdge(rnd.nextInt(nv), rnd.nextInt(nv), 1 + rnd.nextInt(10)))
    val vdc = new Vdc(Queries.sssp(g, 0))
    vdc.initialRun()
    (0 until 200).foreach { _ =>
      val update =
        if (rnd.nextDouble() < 0.3) {
          val edges = g.edgeList
          val (s, d, w, l) = edges(rnd.nextInt(edges.size))
          EdgeUpdate(s, d, w, l, add = false)
        } else EdgeUpdate(rnd.nextInt(nv), rnd.nextInt(nv), 1 + rnd.nextInt(10), 0, add = true)
      vdc.applyBatch(Seq(update))
    }
    // A δD entry takes 24 B and a δJ entry 32 B against the model's 24 B,
    // destination summaries add a few uncounted entries, and each log leaves
    // under one page of 1,024 entries unused (1.28x here).
    val heads = 3L * 4 * nv
    assert(vdc.diffCount > 10000)
    assert(vdc.reservedBytes <= 1.5 * vdc.memoryBytes + heads,
      s"reserved ${vdc.reservedBytes} B, modelled ${vdc.memoryBytes} B")
  }

  test("DD-sim (periodic merge) stores fewer diffs than pure VDC after many batches") {
    val (g1, ups1) = randomDyn(17, nUp = 30)
    val vdc = new Vdc(Queries.sssp(g1, 0))
    vdc.initialRun(); ups1.foreach(u => vdc.applyBatch(Seq(u)))

    val (g2, ups2) = randomDyn(17, nUp = 30)
    val dd = new Vdc(Queries.sssp(g2, 0), mergeEvery = 5)
    dd.initialRun(); ups2.foreach(u => dd.applyBatch(Seq(u)))

    assert(dd.diffCount <= vdc.diffCount)
    assert(dd.currentStates().toSeq == vdc.currentStates().toSeq)
  }

  test("JOD stores no δJ at all while VDC's δJ dominates its footprint") {
    val (g1, ups1) = randomDyn(19)
    val vdc = new Vdc(Queries.sssp(g1, 0))
    vdc.initialRun(); ups1.grouped(1).foreach(b => vdc.applyBatch(b))
    assert(vdc.jDiffCount > 0)
    // JOD's entire memory is D diffs — compare totals on the same workload
    val (g2, ups2) = randomDyn(19)
    val jod = new Jod(Queries.sssp(g2, 0))
    jod.initialRun(); ups2.grouped(1).foreach(b => jod.applyBatch(b))
    assert(jod.storedDiffCount < vdc.diffCount)
  }

  test("insert-only maintenance never needs drops to stay correct at p=0 Degree policy") {
    // Degree policy with p=0 still drops all differences of low-degree
    // vertices (< tau_min) — the Fig 6 x-axis floor.
    val (g, _) = randomDyn(21)
    val pol = DropPolicy.Degree(0.0, tauMin = 2, tauMax = 1000)
    val det = new Jod(Queries.khop(g.copy(), 0, 5), pol, new DetDroppedVT)
    det.initialRun()
    assert(det.currentStates().toSeq ==
      ScratchEngine.states(Queries.khop(g, 0, 5)).toSeq)
  }

  test("JOD rejects iteration caps that overflow the 20-bit packed iteration") {
    val g = new DynamicGraph(4)
    g.addEdge(0, 1)
    // K-hop's maxIters is k + 1.
    assert(Queries.khop(g, 0, (1 << 20) - 1).maxIters == 1 << 20)
    intercept[IllegalArgumentException](new Jod(Queries.khop(g, 0, (1 << 20) - 1)))
    val jod = new Jod(Queries.khop(g, 0, (1 << 20) - 2))
    jod.initialRun()
    assert(jod.currentStates().toSeq == Seq(0.0, 1.0, Queries.INF, Queries.INF))
  }

  test("VDC rejects iteration caps that overflow the 24-bit packed iteration") {
    val g = new DynamicGraph(4)
    g.addEdge(0, 1)
    // K-hop's maxIters is k + 1.
    assert(Queries.khop(g, 0, (1 << 24) - 1).maxIters == 1 << 24)
    intercept[IllegalArgumentException](new Vdc(Queries.khop(g, 0, (1 << 24) - 1)))
    val vdc = new Vdc(Queries.khop(g, 0, (1 << 24) - 2))
    vdc.initialRun()
    assert(vdc.currentStates().toSeq == Seq(0.0, 1.0, Queries.INF, Queries.INF))
  }

  test("VDC refuses to rerun an operator at a timestamp that already holds its output") {
    def fresh(): Vdc = {
      val g = new DynamicGraph(3)
      g.addEdge(0, 1, 5); g.addEdge(1, 2, 5)
      val vdc = new Vdc(Queries.sssp(g, 0))
      vdc.initialRun()
      vdc
    }
    // Inserting 0 -> 2 in version 1 reruns Join(0), then Min(2), at ⟨1, 1⟩.
    val insert = Seq(EdgeUpdate(0, 2, 1, 0, add = true))
    val min = fresh()
    min.injectD(2, 1, 1.0, 1, k = 1)
    val e1 = intercept[IllegalArgumentException](min.applyBatch(insert))
    assert(e1.getMessage.contains("δD of node 2 already holds a difference at ⟨1, 1⟩"), e1.getMessage)
    val join = fresh()
    join.injectJ(0, 2, 1, 1.0, 1, k = 1)
    val e2 = intercept[IllegalArgumentException](join.applyBatch(insert))
    assert(e2.getMessage.contains("δJ of source 0 already holds a difference at ⟨1, 1⟩"), e2.getMessage)
    val clean = fresh()
    clean.applyBatch(insert)
    assert(clean.currentStates().toSeq == Seq(0.0, 5.0, 1.0))
  }

  test("VDC counts no δE for deleting an absent edge") {
    val (g, ups) = randomDyn(29)
    val vdc = new Vdc(Queries.sssp(g, 0), captureTrace = true)
    vdc.initialRun()
    ups.grouped(4).foreach(b => vdc.applyBatch(b))
    def tracedE = vdc.traceE.values.map(_.size).sum
    val (diffsBefore, tracedBefore) = (vdc.diffCount, tracedE)
    val absent = EdgeUpdate(0, 1, 999, 0, add = false)
    assert(!g.copy().removeEdge(absent.src, absent.dst, absent.weight, absent.label))
    vdc.applyBatch(Seq(absent))
    assert(vdc.diffCount == diffsBefore)
    assert(tracedE == tracedBefore)
    assert(vdc.currentStates().toSeq == ScratchEngine.states(Queries.sssp(g, 0)).toSeq)
  }

  test("VDC requires every D accumulation it reads to be one value with multiplicity +1") {
    for ((extra, mult) <- Seq((1.0, 1), (0.0, 1), (1.0, -1))) {
      val (g, ups) = randomDyn(31)
      val vdc = new Vdc(Queries.sssp(g, 0))
      vdc.initialRun()
      ups.grouped(4).foreach(b => vdc.applyBatch(b))
      val node = 3
      val d = vdc.currentStates()(node)
      // {d: +1} becomes {d: +1, d + 1: +1}, {d: +2} or {d: +1, d + 1: -1}
      vdc.injectD(node, vdc.maxIterSeen, d + extra, mult)
      val e = intercept[IllegalArgumentException](vdc.currentStates())
      assert(e.getMessage.contains(s"node $node"), e.getMessage)
    }
  }
}
