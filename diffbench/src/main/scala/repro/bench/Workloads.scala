package repro.bench

import java.util.SplittableRandom
import repro.core.{IFESpec, Queries}
import repro.graph.{Datasets, DynamicGraph}

/** One registered query: its engine, its spec over a given graph, and the
  * vertex whose answer is read after every batch (-1 = none).
  */
final case class Query(kind: EngineKind, spec: DynamicGraph => IFESpec, target: Int)

/** A workload: a dataset, a batch size, and `fleets` fleets of queries per
  * run, each drawn by `fleet` from a seed. Every stream is
  * `Datasets.withDeletions(data, 0.25)`; a pass registers one fleet and
  * streams the first `passBatches` batches. `tailPercentile` is the highest
  * percentile with at least 10 of a pass's batches beyond it.
  */
final case class Workload(name: String, dataset: Datasets.Config, batchSize: Int, passBatches: Int, fleets: Int,
                          readAnswers: Boolean, tailPercentile: Double,
                          fleet: (DynamicGraph, Long) => IndexedSeq[Query])

object Workloads {
  val DeleteRatio = 0.25
  val Names: Seq[String] = Seq("spsp-fleet", "khop-drop", "vdc-sssp", "pr-batch")

  /** The workload `name`; `smoke` shrinks every fleet to two queries. */
  def apply(name: String, smoke: Boolean): Workload = {
    def size(n: Int) = if (smoke) 2 else n
    name match {
      // JOD scheduling, the upper-bound scan and one graph copy per query.
      case "spsp-fleet" => Workload(name, Datasets.sk(weighted = true), 1, 1100, 6, readAnswers = true, 99.0,
        (g, seed) => {
          val rnd = new SplittableRandom(seed)
          sources(g, rnd, size(16)).map { s =>
            Query(EngineKind.Jod, Queries.sssp(_, s), target(g, rnd, s))
          }
        })
      // The only workload through DroppedVT, DropPolicy and the drop cascades.
      case "khop-drop" => Workload(name, Datasets.sk(), 1, 1100, 8, readAnswers = false, 99.0,
        (g, seed) => {
          val rnd = new SplittableRandom(seed)
          sources(g, rnd, size(32)).zipWithIndex.map { case (s, q) =>
            val policySeed = rnd.nextLong()
            val kind = if (q % 2 == 0) EngineKind.DetDrop(0.5, policySeed) else EngineKind.ProbDrop(0.5, policySeed)
            Query(kind, Queries.khop(_, s, 3), -1)
          }
        })
      // The only workload through VDC's 2-D difference stores; its state
      // grows with every batch, which caps fleet size and stream length.
      case "vdc-sssp" => Workload(name, Datasets.patents(weighted = true), 1, 250, 10, readAnswers = false, 96.0,
        (g, seed) => {
          val rnd = new SplittableRandom(seed)
          sources(g, rnd, size(8)).map(s => Query(EngineKind.Vdc, Queries.sssp(_, s), -1))
        })
      // One query, 100-edge batches; the whole stream is 51 batches.
      case "pr-batch" => Workload(name, Datasets.lj(), 100, 51, 1, readAnswers = false, 80.0,
        (_, _) => IndexedSeq(Query(EngineKind.Jod, Queries.pagerank(_, 10), -1)))
      case other =>
        throw new IllegalArgumentException(s"unknown workload '$other' (one of ${Names.mkString(", ")})")
    }
  }

  /** `k` distinct vertices with out-degree ≥ 3, drawn from `rnd`. */
  private def sources(g: DynamicGraph, rnd: SplittableRandom, k: Int): IndexedSeq[Int] = {
    val candidates = (0 until g.numVertices).filter(g.outDegree(_) >= 3).toArray
    require(candidates.length >= k, s"only ${candidates.length} vertices with out-degree >= 3")
    // partial Fisher-Yates
    for (i <- 0 until k) {
      val j = i + rnd.nextInt(candidates.length - i)
      val c = candidates(i); candidates(i) = candidates(j); candidates(j) = c
    }
    candidates.take(k).toIndexedSeq
  }

  /** A vertex other than `s` with at least one in-edge. */
  private def target(g: DynamicGraph, rnd: SplittableRandom, s: Int): Int = {
    var t = s
    while (t == s || g.inDegree(t) == 0) t = rnd.nextInt(g.numVertices)
    t
  }
}
