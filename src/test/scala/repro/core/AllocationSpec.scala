package repro.core

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.graph._

/** Heap bytes the engines allocate, as this thread's allocation counter
  * sees them. The counter counts every object the code creates in the
  * interpreter and before escape analysis had a chance to remove it, so
  * these bounds hold whatever the JIT does.
  */
class AllocationSpec extends AnyFunSuite {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def allocated(body: => Unit): Long = {
    val a0 = threads.getCurrentThreadAllocatedBytes
    body
    threads.getCurrentThreadAllocatedBytes - a0
  }

  test("constructing a VDC over an edgeless 100,000-vertex graph allocates under 8 MB") {
    val spec = Queries.sssp(new DynamicGraph(100000), source = 0)
    var vdc: Vdc = null
    val bytes = allocated { vdc = new Vdc(spec) }
    assert(vdc.diffCount == 0)
    assert(bytes < 8L * 1024 * 1024, s"allocated $bytes B")
  }

  test("constructing a JOD over an edgeless 100,000-vertex graph allocates under 2 MB") {
    val spec = Queries.sssp(new DynamicGraph(100000), source = 0)
    var jod: Jod = null
    val bytes = allocated { jod = new Jod(spec) }
    assert(jod.storedDiffCount == 0 && jod.diffs.forall(_ eq repro.util.DiffList.Empty))
    assert(bytes < 2L * 1024 * 1024, s"allocated $bytes B")
  }

  test("building a 2,000-vertex, 8,000-edge graph through fromEdges allocates under 320 KB") {
    val rnd = new Random(11)
    val nv = 2000
    val edges = List.fill(8000)((rnd.nextInt(nv), rnd.nextInt(nv), 1 + rnd.nextInt(10), rnd.nextInt(4).toByte))
    // Per direction the packed store allocates a degree array and an array of
    // references (16 KB with compressed references), a 16-byte header for
    // each vertex with an edge (3,929 of the 4,000 vertex-directions here)
    // and 8 bytes per edge entry: 32 + 63 + 128 KB for both directions, plus
    // the build's two 8-KB degree counts, 239 KB (255 KB measured on
    // OpenJDK 17). Three parallel arrays per vertex and direction (neighbour
    // Int, weight Int, label Byte) allocated 493 KB.
    var g: DynamicGraph = null
    val bytes = allocated { g = DynamicGraph.fromEdges(nv, edges) }
    assert(g.numEdges == 8000)
    assert(bytes < 320L * 1024, s"allocated $bytes B")
  }

  test("a graph of more than 2^24 vertices is refused before its arrays are allocated") {
    val bytes = allocated {
      intercept[IllegalArgumentException](new DynamicGraph((1 << 24) + 1))
    }
    assert(bytes < 1024 * 1024, s"allocated $bytes B") // its arrays would take 256 MB
  }

  test("warm VDC SSSP batches allocate only the log pages their entries fill") {
    val rnd = new Random(5)
    val nv = 2000
    val g = new DynamicGraph(nv)
    (0 until 8000).foreach(_ => g.addEdge(rnd.nextInt(nv), rnd.nextInt(nv), 1 + rnd.nextInt(10)))
    val vdc = new Vdc(Queries.sssp(g, source = 0))
    vdc.initialRun()
    val states = vdc.currentStates()
    val far = states.indices.filter(v => !states(v).isInfinite).maxBy(states(_))
    val insert = List(EdgeUpdate(0, far, 1, 0, add = true))
    val delete = List(EdgeUpdate(0, far, 1, 0, add = false))
    def toggle(times: Int): Unit = (0 until times).foreach { _ => vdc.applyBatch(insert); vdc.applyBatch(delete) }
    toggle(5)
    val (diffs0, jDiffs0, reserved0) = (vdc.diffCount, vdc.jDiffCount, vdc.reservedBytes)
    val batches = 40
    val bytes = allocated(toggle(batches / 2))
    // Every batch adds one δE; the rest of the new differences are δD (24 B
    // an entry) and δJ (32 B) entries, and each of the two logs may have
    // opened one page (1,024 entries) it has not filled yet. Beyond the
    // pages, allow their array headers and the doubling page directories
    // (1/256 of the page bytes; 27 KB of 16 MB measured on OpenJDK 17) and
    // 256 B a batch. Pages that grew by copying would allocate twice over.
    val jAppended = vdc.jDiffCount - jDiffs0
    val dAppended = vdc.diffCount - diffs0 - batches - jAppended
    val pageBytes = vdc.reservedBytes - reserved0
    assert(dAppended > 0 && jAppended > 0, "VDC never merges, so every batch appends")
    assert(pageBytes <= 24 * dAppended + 32 * jAppended + 1024 * (24 + 32))
    assert(bytes <= pageBytes + pageBytes / 256 + 256L * batches,
      s"allocated $bytes B for $pageBytes B of pages over $batches batches")
  }

  test("plain JOD SSSP allocates under 256 B per batch once warm") {
    val rnd = new Random(5)
    val nv = 2000
    val g = new DynamicGraph(nv)
    (0 until 8000).foreach(_ => g.addEdge(rnd.nextInt(nv), rnd.nextInt(nv), 1 + rnd.nextInt(10)))
    val jod = new Jod(Queries.sssp(g, source = 0))
    jod.initialRun()
    // A shortcut from the source to its farthest reachable vertex: inserting
    // it lowers distances behind it, deleting it raises them again.
    val states = jod.currentStates()
    val far = states.indices.filter(v => !states(v).isInfinite).maxBy(states(_))
    val insert = List(EdgeUpdate(0, far, 1, 0, add = true))
    val delete = List(EdgeUpdate(0, far, 1, 0, add = false))
    def toggle(times: Int): Unit = (0 until times).foreach { _ => jod.applyBatch(insert); jod.applyBatch(delete) }
    toggle(500)
    val before = jod.totalDiffsWritten
    val batches = 2000
    val bytes = allocated(toggle(batches / 2))
    assert(jod.totalDiffsWritten > before, "the batches must change states")
    assert(bytes.toDouble / batches < 256, s"allocated ${bytes.toDouble / batches} B per batch")
  }
}
