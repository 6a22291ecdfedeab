package repro.bench

import java.io.File
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite

/** Smoke mode end to end (Spark set-up included): the result line has the
  * schema BENCHMARK.json promises, every metric it names is present with
  * its unit, and no checkpoint fails.
  */
class SmokeSpec extends AnyFunSuite {
  private val json = new ObjectMapper()
  private val spec = json.readTree(new File("../BENCHMARK.json"))

  private def declared(section: String): Map[String, String] =
    spec.get(section).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap

  test("BENCHMARK.json names only workloads the driver has") {
    val named = spec.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(named.nonEmpty && named.forall(Workloads.Names.contains))
  }

  for (name <- Workloads.Names; trace <- Seq(false, true))
    test(s"$name smoke run, trace=${if (trace) 1 else 0}: schema, units, fail_ratio 0") {
      val out = Driver.run(Opts(name, 1L, 1.0, trace, smoke = true, "target/test-work"), _ => ())
      val res: JsonNode = json.readTree(out)
      assert(res.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
      assert(res.get("correct").asBoolean)
      assert(res.get("attempted").asLong >= 1)
      assert(res.get("failed").asLong == 0)
      val metrics = res.get("metrics")
      val got = metrics.fieldNames().asScala.map(n => n -> metrics.get(n).get("unit").asText).toMap
      assert(got == declared(if (trace) "per_layer" else "end_to_end"))
      metrics.elements().asScala.foreach(m => assert(m.get("value").isNumber))
    }
}
