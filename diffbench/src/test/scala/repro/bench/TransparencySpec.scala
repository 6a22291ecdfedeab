package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** The traced run's wrappers (spec, graph view, drop policy, DroppedVT)
  * must not change what the engines compute: a traced and an untraced run
  * of every workload end with identical states and public counters.
  */
class TransparencySpec extends AnyFunSuite {
  private def run(w: Workload, s: Setup, tracer: Tracer): (Seq[Seq[Double]], Seq[Counters]) = {
    val queries = w.fleet(s.graph, 11L)
    val engines = queries.map(q => Engines.build(q.kind, q.spec(s.data.graph()), tracer))
    engines.foreach(_.initialRun())
    s.batches.foreach { b =>
      if (tracer != null) tracer.counting = true
      engines.foreach(_.applyBatch(b))
      if (tracer != null) tracer.counting = false
    }
    val counters = engines.map(_.counters)
    (engines.map(_.states().toSeq), counters)
  }

  for (name <- Workloads.Names) test(s"$name: traced and untraced engines end identically") {
    val w = Workloads(name, smoke = true)
    val s = BenchFixtures.setup(w)
    val tracer = new Tracer
    val (plainStates, plainCounters) = run(w, s, null)
    val (tracedStates, tracedCounters) = run(w, s, tracer)
    assert(plainStates == tracedStates)
    assert(plainCounters == tracedCounters)
    // the wrappers did see the work
    assert(tracer.counts(Tracer.InEdgeVisits) + tracer.counts(Tracer.OutEdgeVisits) > 0)
    if (name == "khop-drop") {
      assert(plainCounters.map(_.dropped).sum > 0)
      assert(tracer.counts(Tracer.VtLookups) > 0 && tracer.counts(Tracer.PolicyDecisions) > 0)
    }
  }
}
