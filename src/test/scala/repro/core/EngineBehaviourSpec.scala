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
    def fullCount(): Long = {
      // recount via the public counters: jDiffCount (scan) + dD scan via merge trick
      vdc.jDiffCount // ensures scan path stays exercised
      val before = vdc.diffCount
      vdc.mergeVersions() // recounts internally
      val after = vdc.diffCount
      assert(after <= before, "merge may only shrink the count")
      after
    }
    ups.grouped(3).foreach { b =>
      vdc.applyBatch(b)
      val inc = vdc.diffCount
      val recounted = fullCount()
      assert(recounted <= inc)
      assert(vdc.currentStates().toSeq == ScratchEngine.states(Queries.sssp(g, 0)).toSeq)
    }
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
