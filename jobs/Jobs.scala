package repro.jobs

import repro.bench.{Harness, Tables}
import repro.core.{Ell, Geer}
import repro.graph.GraphGen

// Entrypoints, one per reproduced table/figure (DESIGN.md §4). Each runs
// the same harness the bench suites use, in one JVM, and prints the table
// to stdout. They are plain `main`s, so `spark-submit` can still launch them
// from the assembled jar:
//
//   spark-submit --class repro.jobs.RandomQueriesJob repro.jar

/** Table 3 — dataset statistics. */
object DatasetStatsJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    Tables.header("Table 3 — dataset statistics",
      Seq("analog", "n", "m", "avg deg", "lambda"))
    Seq("facebook-lite", "dblp-lite", "youtube-lite",
        "orkut-lite", "livejournal-lite", "friendster-lite").foreach { name =>
      val g = h.graph(name)
      Tables.row(Seq(name, g.n.toString, g.m.toString,
        f"${g.avgDegree}%.2f", f"${h.lambda(name)}%.4f"))
    }
    Tables.footer()
  }
}

/** Fig. 2 table — running example walk counts vs η*. */
object RunningExampleJob {
  def main(args: Array[String]): Unit = {
    val g = GraphGen.toyFig2
    val sVec = new Array[Double](g.n); sVec(0) = 1.0
    val tVec = new Array[Double](g.n); tVec(1) = 1.0
    Tables.header("Fig. 2 — running example (eps=0.5, delta=0.1)",
      Seq("l_f", "#path(s)", "#path(t)", "eta*"))
    var xs = Array.fill(g.n)(1L); var xt = Array.fill(g.n)(1L)
    (1 to 8).foreach { l =>
      def step(x: Array[Long]) = Array.tabulate(g.n) { v =>
        var acc = 0L; g.neighborsOf(v).foreach(w => acc += x(w)); acc
      }
      xs = step(xs); xt = step(xt)
      val psi = repro.core.Amc.psi(sVec, tVec, g.degree(0), g.degree(1), l)
      Tables.row(Seq(l.toString, xs(0).toString, xt(1).toString,
        repro.core.Amc.etaStar(psi, 0.5, 1, 0.1).toString))
    }
    Tables.footer()
  }
}

/** Figs. 4/6 — random-query efficiency and accuracy sweep. */
object RandomQueriesJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    val datasets = if (args.nonEmpty) args.toSeq else Seq("facebook-lite", "dblp-lite")
    datasets.foreach { name =>
      val pairs = h.randomPairs(name, 20)
      val truth = h.groundTruth(name, pairs)
      Tables.header(s"Fig. 4/6 — $name (random queries)",
        Seq("eps", "method", "avg ms", "avg err"))
      Seq(0.05, 0.1, 0.2, 0.5).foreach { eps =>
        Seq(h.geer(name), h.amc(name), h.smm(name), h.tp(name), h.tpc(name)).foreach { est =>
          val (ms, err, _) = h.measure(est, pairs.take(5), eps, truth)
          Tables.row(Seq(f"$eps%.2f", est.name, h.fmtMs(ms), h.fmtErr(err)))
        }
      }
      Tables.footer()
    }
  }
}

/** Figs. 5/7 — edge-query efficiency and accuracy sweep. */
object EdgeQueriesJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    val datasets = if (args.nonEmpty) args.toSeq else Seq("facebook-lite", "dblp-lite")
    datasets.foreach { name =>
      val edges = h.randomEdges(name, 10)
      val truth = h.groundTruth(name, edges)
      Tables.header(s"Fig. 5/7 — $name (edge queries)",
        Seq("eps", "method", "avg ms", "avg err"))
      Seq(0.1, 0.2, 0.5).foreach { eps =>
        Seq(h.geer(name), h.amc(name), h.smm(name), h.mc2(name), h.hay(name)).foreach { est =>
          val (ms, err, _) = h.measure(est, edges.take(5), eps, truth)
          Tables.row(Seq(f"$eps%.2f", est.name, h.fmtMs(ms), h.fmtErr(err)))
        }
      }
      Tables.footer()
    }
  }
}

/** Figs. 8/9 — τ sensitivity. */
object VaryTauJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    val name = if (args.nonEmpty) args(0) else "dblp-lite"
    Seq(0.2, 0.02).foreach { eps =>
      val pairs = h.randomPairs(name, 5)
      val truth = h.groundTruth(name, pairs)
      Tables.header(f"Figs. 8/9 — $name, eps=$eps%.2f: vary tau",
        Seq("tau", "AMC ms", "GEER ms"))
      Seq(1, 2, 3, 5, 8).foreach { tau =>
        val (ams, _, _) = h.measure(h.amcWithTau(name, tau), pairs, eps, truth)
        val (gms, _, _) = h.measure(h.geerWithTau(name, tau), pairs, eps, truth)
        Tables.row(Seq(tau.toString, h.fmtMs(ams), h.fmtMs(gms)))
      }
      Tables.footer()
    }
  }
}

/** Fig. 10 — ℓ_b sensitivity around the greedy switch point. */
object VaryLbJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    val name = if (args.nonEmpty) args(0) else "facebook-lite"
    val g = h.graph(name); val lam = h.lambda(name)
    val eps = 0.1
    val pairs = h.randomPairs(name, 5)
    val truth = h.groundTruth(name, pairs)
    Tables.header(s"Fig. 10 — $name, eps=$eps: vary ell_b offset",
      Seq("offset", "avg ms"))
    Seq(-6, -4, -2, 0, 2, 4, 6).foreach { off =>
      var ms = 0.0
      pairs.foreach { case (s, t) =>
        val lbStar = Geer.switchPoint(g, lam, s, t, eps, h.delta, h.tau)
        val ell = Ell.refined(eps, lam, g.degree(s), g.degree(t))
        val lb = math.max(0, math.min(ell, lbStar + off))
        ms += h.geerWithLb(name, lb).query(s, t, eps).millis
      }
      Tables.row(Seq(off.toString, h.fmtMs(ms / pairs.size)))
    }
    Tables.footer()
  }
}

/** Fig. 11 — refined ℓ vs Peng et al.'s ℓ in SMM. */
object EllCompareJob {
  def main(args: Array[String]): Unit = {
    val h = new Harness()
    Seq(0.5, 0.05).foreach { eps =>
      Tables.header(f"Fig. 11 — SMM with refined vs Peng ell, eps=$eps%.2f",
        Seq("dataset", "ms(peng)", "ms(ours)", "speedup"))
      Seq("facebook-lite", "dblp-lite", "youtube-lite", "orkut-lite", "livejournal-lite")
        .foreach { name =>
          val pairs = h.randomPairs(name, 8)
          val truth = h.groundTruth(name, pairs)
          val (p, _, _) = h.measure(h.smmPengEll(name), pairs, eps, truth)
          val (o, _, _) = h.measure(h.smm(name), pairs, eps, truth)
          Tables.row(Seq(name, h.fmtMs(p), h.fmtMs(o), f"${p / o}%.2f"))
        }
      Tables.footer()
    }
  }
}
