package repro.bench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.core.ScratchEngine
import repro.graph.{Datasets, DynamicGraph, EdgeUpdate}

/** Command-line options of one benchmark run. */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      smoke: Boolean, workDir: String)

object Opts {
  def parse(args: Seq[String]): Opts = {
    def value(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i < 0) None
      else if (i + 1 < args.length) Some(args(i + 1))
      else throw new IllegalArgumentException(s"$flag needs a value")
    }
    def req(flag: String) = value(flag).getOrElse(throw new IllegalArgumentException(s"missing $flag"))
    val trace = req("--trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not '$t'")
    }
    val seconds = req("--seconds").toDouble
    require(seconds > 0, "--seconds must be positive")
    Opts(req("--workload"), req("--seed").toLong, seconds, trace, args.contains("--smoke"),
      value("--work-dir").getOrElse("diffbench/target/work"))
  }
}

/** What set-up leaves for the passes: the dataset, its update stream cut
  * into batches, and the initial graph the fleet is drawn from.
  */
final case class Setup(data: Datasets.DynData, batches: IndexedSeq[Seq[EdgeUpdate]], graph: DynamicGraph)

/** Measurements of one pass: register the fleet, then stream the batches. */
final case class Pass(queries: Int, initS: Double, buildS: Double, latNs: Array[Long], allocBytes: Long, heapBytes: Long,
                      modelBytes: Long, updates: Long, gcMs: Long, copiesBytes: Long,
                      dropRecomputes: Long, diffsWritten: Long, vdcDiffs: Long, vdcJDiffs: Long,
                      traced: Boolean) {
  def batches: Int = latNs.length
  def streamNs: Long = latNs.sum
}

/** The closed-loop driver: one thread applies batch k+1 only after every
  * query has absorbed batch k (and, where the workload reads answers, after
  * every answer has been read). Verification against `ScratchEngine` runs
  * between batches, outside the timed region.
  */
final class Runner(val w: Workload, val setup: Setup, tracer: Tracer) {
  private val memory = ManagementFactory.getMemoryMXBean
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Verification checkpoints: one per query per checkpoint. */
  var attempted: Long = 0L
  var failed: Long = 0L
  var verifyNs: Long = 0L

  private def fullGc(): Long = { System.gc(); memory.getHeapMemoryUsage.getUsed }
  private def gcMs(): Long = gcBeans.map(_.getCollectionTime).sum

  /** One verification checkpoint per engine: compare it with a
    * from-scratch run on `ref` and count the ones that differ.
    */
  def check(queries: IndexedSeq[Query], engines: Array[Engine], ref: DynamicGraph, answers: Array[Double],
            t: Tracer = null): Unit =
    engines.indices.foreach { i =>
      def ok = Runner.agrees(queries(i), engines(i), ref, answers(i), w.readAnswers)
      val good = if (t != null) t.span(Tracer.Verify)(ok) else ok
      attempted += 1
      if (!good) failed += 1
    }

  /** One pass: register `queries`, then stream the first `nb` batches. */
  def pass(queries: IndexedSeq[Query], nb: Int, traced: Boolean): Pass = {
    val t = if (traced) tracer else null
    val ref = setup.data.graph()
    val lat = new Array[Long](nb)
    val answers = new Array[Double](queries.size)
    val targets = queries.map(_.target).toArray
    val base = fullGc()

    val b0 = System.nanoTime()
    val graphs = queries.map(_ => if (traced) t.span(Tracer.Build)(setup.data.graph()) else setup.data.graph()).toArray
    val buildNs = System.nanoTime() - b0
    val copiesBytes = if (traced) fullGc() - base else 0L
    val r0 = System.nanoTime()
    val engines = queries.indices.map { i =>
      def register(): Engine = {
        val e = Engines.build(queries(i).kind, queries(i).spec(graphs(i)), t)
        e.initialRun()
        e
      }
      if (traced) t.span(Tracer.Init)(register()) else register()
    }.toArray
    val initS = (buildNs + System.nanoTime() - r0) / 1e9
    fullGc() // move the fleet out of the young generation before timing
    val isJod = engines.map(_.kind != EngineKind.Vdc)
    val isDrop = engines.map(e => e.kind.isInstanceOf[EngineKind.DetDrop] || e.kind.isInstanceOf[EngineKind.ProbDrop])

    var alloc = 0L
    var gcOutside = 0L
    var dropRecomputes = 0L
    var diffsWritten = 0L
    val gc0 = gcMs()
    var k = 0
    while (k < nb) {
      val b = setup.batches(k)
      val a0 = threads.getCurrentThreadAllocatedBytes
      val s0 = System.nanoTime()
      if (!traced) {
        var i = 0
        while (i < engines.length) { engines(i).applyBatch(b); i += 1 }
        if (w.readAnswers) {
          i = 0
          while (i < engines.length) { answers(i) = engines(i).answer(targets(i)); i += 1 }
        }
      } else {
        val bid = t.begin(Tracer.Batch)
        var i = 0
        while (i < engines.length) {
          val e = engines(i)
          val c0 = if (isJod(i)) e.counters else null
          val sid = t.begin(Tracer.applySpan(e.kind))
          t.counting = true
          e.applyBatch(b)
          t.counting = false
          t.end(sid)
          if (isJod(i)) {
            val c1 = e.counters
            diffsWritten += c1.diffsWritten - c0.diffsWritten
            if (isDrop(i)) dropRecomputes += c1.recomputes - c0.recomputes
          }
          i += 1
        }
        if (w.readAnswers) t.span(Tracer.Answer) {
          i = 0
          while (i < engines.length) { answers(i) = engines(i).answer(targets(i)); i += 1 }
        }
        t.end(bid)
      }
      val s1 = System.nanoTime()
      alloc += threads.getCurrentThreadAllocatedBytes - a0
      lat(k) = s1 - s0
      if (traced) t.span(Tracer.Mutate)(ref.apply(b)) else ref.apply(b)
      if (k == nb - 1) {
        val g0 = gcMs()
        val v0 = System.nanoTime()
        check(queries, engines, ref, answers, t)
        gcOutside += gcMs() - g0
        verifyNs += System.nanoTime() - v0
      }
      k += 1
    }
    val streamGcMs = gcMs() - gc0 - gcOutside
    val model = engines.map(_.modelBytes).sum
    val (vdcDiffs, vdcJDiffs) =
      if (traced) engines.filter(_.kind == EngineKind.Vdc).map(_.counters)
        .foldLeft((0L, 0L)) { case ((d, j), c) => (d + c.diffs, j + c.jDiffs) }
      else (0L, 0L)
    // The fleet's heap: the live heap with the fleet minus the live heap
    // right after dropping it, read back to back so that memory the JVM
    // releases during the pass (up to 2 MB left from set-up, in a run's first
    // passes) is not counted. Traced passes skip it: an interpreted frame may
    // still hold the last engine the traced loop touched.
    val heap = if (traced) 0L else {
      val withFleet = fullGc()
      java.util.Arrays.fill(engines.asInstanceOf[Array[AnyRef]], null)
      java.util.Arrays.fill(graphs.asInstanceOf[Array[AnyRef]], null)
      withFleet - fullGc()
    }
    java.lang.ref.Reference.reachabilityFence(ref)
    Pass(queries.size, initS, buildNs / 1e9, lat, alloc, heap, model, setup.batches.take(nb).map(_.size.toLong).sum, streamGcMs,
      copiesBytes, dropRecomputes, diffsWritten, vdcDiffs, vdcJDiffs, traced)
  }
}

object Runner {
  /** True when `e` agrees with a from-scratch run on `ref`: every state (by
    * `spec.same`, so PageRank tolerates summation order) and, when answers
    * are read, the last answer read at the query's target.
    */
  def agrees(q: Query, e: Engine, ref: DynamicGraph, answer: Double, checkAnswer: Boolean): Boolean = {
    val spec = q.spec(ref)
    val want = ScratchEngine.states(spec)
    val got = e.states()
    got.length == want.length && want.indices.forall(v => spec.same(got(v), want(v))) &&
      (!checkAnswer || spec.same(answer, want(q.target)))
  }
}

object Driver {
  /** Set-up repetitions per run; `setup_s` is their median. */
  val SetupReps = 3

  /** Spark session, dataset generation, stream and initial graph.
    * @return the set-up, its total seconds and its generation seconds
    */
  def setupOnce(w: Workload, workDir: String): (Setup, Double, Double) = {
    val t0 = System.nanoTime()
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("diffbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .config("spark.sql.shuffle.partitions", "8")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val t1 = System.nanoTime()
    val data = try Datasets.load(spark, w.dataset) finally spark.stop()
    val stream = Datasets.withDeletions(data, Workloads.DeleteRatio)
    val t2 = System.nanoTime()
    val graph = data.graph()
    val t3 = System.nanoTime()
    Console.err.println(f"setup: spark ${(t1 - t0) / 1e9}%.3f s, generate ${(t2 - t1) / 1e9}%.3f s, graph ${(t3 - t2) / 1e9}%.3f s")
    (Setup(data, Datasets.batches(stream, w.batchSize).toIndexedSeq, graph), (t3 - t0) / 1e9, (t2 - t1) / 1e9)
  }

  def median(xs: Iterable[Double]): Double = {
    val s = xs.toIndexedSeq.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile of sorted samples, with the count beyond it. */
  def percentile(sorted: Array[Long], p: Double): (Long, Int) = {
    val rank = math.max(1, math.ceil(p / 100.0 * sorted.length).toInt)
    (sorted(rank - 1), sorted.length - rank)
  }

  /** Run the benchmark; print progress lines and return the result line. */
  def run(o: Opts, log: String => Unit): String = {
    val uptimeS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val w = Workloads(o.workload, o.smoke)
    val tracer = if (o.trace) new Tracer else null
    log(s"# diffbench workload=${w.name} seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} smoke=${o.smoke}")
    log(s"# jvm ${ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(" ")}")

    // set-up, repeated; the first one is counted from JVM start
    val reps = if (o.smoke) 1 else SetupReps
    var setup: Setup = null
    val setupS = ArrayBuffer.empty[Double]
    val generateS = ArrayBuffer.empty[Double]
    for (r <- 0 until reps) {
      val (s, total, gen) = setupOnce(w, o.workDir)
      setup = s
      setupS += total + (if (r == 0) uptimeS else 0.0)
      generateS += gen
    }
    log(f"# setup_s reps ${setupS.map(x => f"$x%.3f").mkString(" ")}")

    // A run registers `w.fleets` fleets drawn from the seed and streams them
    // round-robin, round after round, until `seconds` is spent (half of it in
    // a traced run, whose traced passes take the other half); another round
    // starts only if half of one fits. The machine's speed swings by tens of
    // percent, and only ever downwards from its uncontended speed, so a
    // batch's time is the fastest of its rounds. Several fleets average out
    // which sources the seed drew.
    val fleetSeeds = new java.util.SplittableRandom(o.seed)
    val runner = new Runner(w, setup, tracer)
    val nb = math.min(setup.batches.size, if (o.smoke) 40 / w.batchSize + 2 else w.passBatches)
    val fleets = IndexedSeq.fill(if (o.smoke) 1 else w.fleets)(w.fleet(setup.graph, fleetSeeds.nextLong()))

    def pass(f: IndexedSeq[Query], traced: Boolean): Pass = {
      val p = runner.pass(f, nb, traced)
      log(f"# pass traced=${p.traced} init_s=${p.initS}%.3f stream_s=${p.streamNs / 1e9}%.3f " +
        f"batches=${p.batches} heap_mb=${p.heapBytes / 1048576.0}%.3f alloc_kb/batch=${p.allocBytes / 1024.0 / p.batches}%.1f")
      p
    }
    // warm-up on a whole fleet and a quarter of the stream, discarded
    if (!o.smoke) runner.pass(fleets(0), math.max(1, nb / 4), traced = false)
    val start = System.nanoTime()
    val budget = (o.seconds * 1e9).toLong
    var last = 0L
    def fits(until: Long) = !o.smoke && System.nanoTime() - start + last / 2 <= until
    def timed[A](body: => A): A = { val t0 = System.nanoTime(); val a = body; last = System.nanoTime() - t0; a }
    val rounds = ArrayBuffer.empty[Seq[Pass]]
    do rounds += timed(fleets.map(pass(_, traced = false)))
    while (fits(if (o.trace) budget / 2 else budget))
    val traced = ArrayBuffer.empty[Pass]
    if (o.trace) {
      var i = 0
      do { traced += timed(pass(fleets(i % fleets.size), traced = true)); i += 1 } while (fits(budget))
    }
    // Per fleet: each batch's fastest time over the rounds, and from those the
    // fleet's p50, tail and throughput. A metric is the median over fleets,
    // so one heavy fleet the seed happened to draw does not move it.
    val perFleet = rounds.head.indices.map { f =>
      val fastest = Array.tabulate(nb)(k => rounds.map(_(f).latNs(k)).min)
      val sorted = fastest.sorted
      (percentile(sorted, 50)._1, percentile(sorted, w.tailPercentile), rounds.head(f).updates / (fastest.sum / 1e9))
    }
    val beyond = perFleet.map(_._2._2).min
    log(f"# ${rounds.size} rounds of ${rounds.head.size} fleets + ${traced.size} traced after 1 warm-up; batches/pass=$nb; " +
      f"batch_tail_ms is p${w.tailPercentile}%.0f of each fleet's $nb batches, $beyond beyond it, median over fleets")
    if (beyond < 10 && !o.smoke) log("# WARNING: fewer than 10 samples beyond the tail percentile")
    log(f"# verification took ${runner.verifyNs / 1e9}%.3f s")
    log(s"# fail_ratio=${runner.failed.toDouble / math.max(1L, runner.attempted)} " +
      s"(${runner.failed} of ${runner.attempted} checkpoints differ from ScratchEngine)")

    val mb = 1024.0 * 1024.0
    // the smallest value of a fleet over the rounds, median over fleets
    def fleetMedian(f: Pass => Double): Double = median(rounds.head.indices.map(i => rounds.map(r => f(r(i))).min))
    val metrics: Seq[(String, Double, String)] = if (!o.trace) {
      Seq(
        ("setup_s", median(setupS), "s"),
        ("heap_mb", fleetMedian(_.heapBytes / mb), "MB"),
        ("alloc_kb_per_batch", fleetMedian(p => p.allocBytes / 1024.0 / p.batches), "KB"),
      )
    } else {
      val t = tracer
      val tb = traced.map(_.batches).sum.toDouble
      def perBatch(c: Int) = t.counts(c) / tb
      def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
      val (_, jodSelf, _) = t.totals(Tracer.ApplyJod)
      val (detDur, detSelf, _) = t.totals(Tracer.ApplyDetDrop)
      val (probDur, probSelf, _) = t.totals(Tracer.ApplyProbDrop)
      val (_, vdcSelf, _) = t.totals(Tracer.ApplyVdc)
      val (initDur, _, nInit) = t.totals(Tracer.Init)
      val (verifyDur, _, nVerify) = t.totals(Tracer.Verify)
      val (mutateDur, _, _) = t.totals(Tracer.Mutate)
      val heapMb = fleetMedian(_.heapBytes / mb)
      val modelMb = fleetMedian(_.modelBytes / mb)
      val jodRecomputes = t.counts(Tracer.JodRecomputes).toDouble
      val all = rounds.flatten ++ traced
      Seq(
        ("init_s", fleetMedian(_.initS), "s"),
        ("batch_p50_ms", median(perFleet.map(_._1 / 1e6)), "ms"),
        ("batch_tail_ms", median(perFleet.map(_._2._1 / 1e6)), "ms"),
        ("updates_per_s", median(perFleet.map(_._3)), "1/s"),
        ("graph.generate_s", median(generateS), "s"),
        ("graph.build_s", median(traced.map(_.buildS)), "s"),
        ("graph.copies_mb", median(traced.map(_.copiesBytes / mb)), "MB"),
        ("graph.mutate_ms", mutateDur / 1e6 / tb * traced.head.queries, "ms"),
        ("graph.in_edge_visits", perBatch(Tracer.InEdgeVisits), "count"),
        ("graph.out_node_visits", perBatch(Tracer.OutNodeVisits), "count"),
        ("graph.out_edge_visits", perBatch(Tracer.OutEdgeVisits), "count"),
        ("core.apply_ms", (jodSelf + detSelf + probSelf + vdcSelf) / 1e6 / tb, "ms"),
        ("core.jod.recomputes", jodRecomputes / tb, "count"),
        ("core.jod.useful_ratio", ratio(traced.map(_.diffsWritten).sum, jodRecomputes), "ratio"),
        ("core.vdc.recomputes", perBatch(Tracer.VdcRecomputes), "count"),
        ("core.vdc.diffs", median(traced.map(_.vdcDiffs.toDouble)), "count"),
        ("core.vdc.j_diffs", median(traced.map(_.vdcJDiffs.toDouble)), "count"),
        ("core.drop.recomputes", traced.map(_.dropRecomputes).sum / tb, "count"),
        ("core.drop.vt_lookups", perBatch(Tracer.VtLookups), "count"),
        ("core.drop.vt_false_pos_ratio", ratio(t.counts(Tracer.VtFalseHits), t.counts(Tracer.VtHits)), "ratio"),
        ("core.drop.dropped_ratio", ratio(t.counts(Tracer.PolicyDrops), t.counts(Tracer.PolicyDecisions)), "ratio"),
        ("core.drop.share", ratio(t.dropNs, detDur + probDur), "ratio"),
        ("core.drop.prob_over_det", ratio(probSelf, detSelf), "ratio"),
        ("core.init_ms", initDur / 1e6 / math.max(1, nInit), "ms"),
        ("core.verify_ms", verifyDur / 1e6 / math.max(1, nVerify), "ms"),
        ("core.model_mb", modelMb, "MB"),
        ("core.heap_over_model", ratio(heapMb, modelMb), "ratio"),
        ("jvm.gc_share", ratio(all.map(_.gcMs).sum * 1e6, all.map(_.streamNs).sum.toDouble), "ratio"),
        ("trace.overhead_ratio", traced.head.streamNs.toDouble / rounds.map(_.head.streamNs).min - 1, "ratio"),
      )
    }
    metrics.foreach { case (n, v, u) => log(f"# $n%-30s $v%14.4f $u") }
    if (o.trace) {
      val path = s"${o.workDir}/traces/${w.name}-seed${o.seed}.tsv"
      tracer.write(path)
      log(s"# ${tracer.size} spans written to $path")
    }
    val body = metrics.map { case (n, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $n is $v")
      s""""$n": {"value": $v, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${runner.failed == 0}, "attempted": ${runner.attempted}, "failed": ${runner.failed}, "metrics": {$body}}"""
  }
}

object Main {
  def main(args: Array[String]): Unit = {
    val code = try {
      println(Driver.run(Opts.parse(args.toSeq), println))
      0
    } catch {
      case e: Throwable =>
        Console.err.println(s"diffbench: error: $e")
        e.printStackTrace()
        1
    }
    System.out.flush()
    sys.exit(code)
  }
}
