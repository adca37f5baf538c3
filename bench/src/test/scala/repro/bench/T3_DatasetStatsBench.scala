package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

/** Table 3 — dataset statistics (ours vs the SNAP graphs each analog
  * mimics; substitution rationale in DESIGN.md §3).
  */
class T3_DatasetStatsBench extends AnyFunSuite {

  test("Table 3: statistics of datasets (analogs vs paper)") {
    val h = BenchShared.harness()
    Tables.header(
      "Table 3 — dataset statistics: our analogs vs the paper's SNAP graphs",
      Seq(f"${"analog"}%-17s", f"${"n"}%8s", f"${"m"}%9s", f"${"avg deg"}%8s",
          f"${"lambda"}%8s", f"${"paper n"}%10s", f"${"paper m"}%13s", f"${"paper deg"}%9s"))
    BenchShared.allAnalogs.foreach { name =>
      val g = h.graph(name)
      val (pn, pm, pdeg) = GraphGen.paperStats(name)
      val lam = h.lambda(name)
      Tables.row(Seq(
        f"$name%-17s", f"${g.n}%8d", f"${g.m}%9d", f"${g.avgDegree}%8.2f",
        f"$lam%8.4f", f"$pn%10d", f"$pm%13d", f"$pdeg%9.2f"))
      assert(g.isConnected && !g.isBipartite)
      assert(math.abs(g.avgDegree - 2.0 * GraphGen.analogs(name)._2) / (2.0 * GraphGen.analogs(name)._2) < 0.25)
    }
    Tables.footer("avg-degree ordering matches Table 3; sizes scaled per DESIGN.md §3")
  }
}
