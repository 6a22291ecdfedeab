package repro.bench

import java.util.SplittableRandom
import repro.graph.{Datasets, EdgeUpdate}

/** Small in-memory datasets, so engine-level tests need no Spark session. */
object BenchFixtures {
  /** A random weighted graph split 90/10 like `Datasets.load`, with every
    * vertex given three out-edges first so any vertex can be a source.
    */
  def data(numVertices: Int = 150, numEdges: Int = 1500, seed: Long = 3L): Datasets.DynData = {
    val rnd = new SplittableRandom(seed)
    def edge(s: Int) = {
      var d = rnd.nextInt(numVertices)
      if (d == s) d = (d + 1) % numVertices
      (s, d, 1 + rnd.nextInt(10), 0.toByte)
    }
    val all = (0 until numVertices).flatMap(s => Seq.fill(3)(edge(s))) ++
      Seq.fill(numEdges - 3 * numVertices)(edge(rnd.nextInt(numVertices)))
    val shuffled = all.toVector.sortBy(_ => rnd.nextInt())
    val cut = (shuffled.size * 0.9).toInt
    val (initial, rest) = shuffled.splitAt(cut)
    Datasets.DynData("fixture", numVertices, initial,
      rest.map { case (s, d, w, l) => EdgeUpdate(s, d, w, l, add = true) })
  }

  /** `data` with the workload's update stream cut into its batches. */
  def setup(w: Workload, d: Datasets.DynData = data()): Setup = {
    val stream = Datasets.withDeletions(d, Workloads.DeleteRatio)
    val batchSize = math.min(w.batchSize, 20)
    Setup(d, Datasets.batches(stream, batchSize).toIndexedSeq, d.graph())
  }
}
