package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  /** Each dataset analog, built once for the tests that read them. */
  private lazy val analogGraphs: Map[String, CsrGraph] =
    GraphGen.analogs.keys.map(name => name -> GraphGen.datasetAnalog(name)).toMap

  test("path(n): n-1 edges, endpoint degrees 1, inner degrees 2") {
    val g = GraphGen.path(8)
    assert(g.n == 8 && g.m == 7)
    assert(g.degree(0) == 1 && g.degree(7) == 1)
    (1 to 6).foreach(v => assert(g.degree(v) == 2))
  }

  test("cycle(n): n edges, all degrees 2, connected") {
    val g = GraphGen.cycle(11)
    assert(g.n == 11 && g.m == 11)
    (0 until 11).foreach(v => assert(g.degree(v) == 2))
    assert(g.isConnected)
  }

  test("complete(n): n(n-1)/2 edges, all degrees n-1") {
    val g = GraphGen.complete(7)
    assert(g.m == 21)
    (0 until 7).foreach(v => assert(g.degree(v) == 6))
  }

  test("star(n): hub degree n-1, leaves degree 1") {
    val g = GraphGen.star(9)
    assert(g.degree(0) == 8)
    (1 until 9).foreach(v => assert(g.degree(v) == 1))
  }

  test("barbell(k): two k-cliques plus one bridge") {
    val k = 6
    val g = GraphGen.barbell(k)
    assert(g.n == 2 * k)
    assert(g.m == 2 * k * (k - 1) / 2 + 1)
    assert(g.hasEdge(k - 1, k))
    assert(g.isConnected && !g.isBipartite)
  }

  test("toyFig2: 11 nodes, d(s)=2, d(t)=7, ergodic") {
    val g = GraphGen.toyFig2
    assert(g.n == 11)
    assert(g.degree(0) == 2, "d(s) must be 2 as implied by #path(s) at l=1")
    assert(g.degree(1) == 7, "d(t) must be 7 as implied by #path(t) at l=1")
    assert(g.isConnected && !g.isBipartite)
  }

  test("erdosRenyi: connected, deterministic in seed") {
    val a = GraphGen.erdosRenyi(100, 0.05, seed = 1)
    val b = GraphGen.erdosRenyi(100, 0.05, seed = 1)
    val c = GraphGen.erdosRenyi(100, 0.05, seed = 2)
    assert(a.isConnected)
    assert(a.neighbors.toSeq == b.neighbors.toSeq)
    assert(a.neighbors.toSeq != c.neighbors.toSeq)
  }

  test("erdosRenyi: non-bipartite after ensureErgodic") {
    (1L to 5L).foreach { s =>
      val g = GraphGen.erdosRenyi(60, 0.03, seed = s)
      assert(g.isConnected && !g.isBipartite, s"seed $s")
    }
  }

  test("barabasiAlbert: connected, non-bipartite, heavy-tailed") {
    val g = GraphGen.barabasiAlbert(2000, 4, seed = 3)
    assert(g.isConnected && !g.isBipartite)
    val degrees = (0 until g.n).map(g.degree)
    assert(degrees.max > 5 * g.avgDegree, "preferential attachment should create hubs")
  }

  test("barabasiAlbert: average degree close to 2*mAttach") {
    val g = GraphGen.barabasiAlbert(3000, 5, seed = 7)
    assert(math.abs(g.avgDegree - 10.0) < 1.5, s"avgDegree=${g.avgDegree}")
  }

  test("barabasiAlbert: deterministic in seed") {
    val a = GraphGen.barabasiAlbert(500, 3, seed = 11)
    val b = GraphGen.barabasiAlbert(500, 3, seed = 11)
    assert(a.neighbors.toSeq == b.neighbors.toSeq)
  }

  test("barabasiAlbert: mAttach = 1 still ergodic (triangle injected)") {
    val g = GraphGen.barabasiAlbert(50, 1, seed = 13)
    assert(g.isConnected && !g.isBipartite)
  }

  test("random generators reject n < 3 and are ergodic from n = 3") {
    Seq(() => GraphGen.barabasiAlbert(2, 1), () => GraphGen.erdosRenyi(2, 0.5),
        () => GraphGen.erdosRenyi(1, 0.5)).foreach { make =>
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains("at least 3 nodes"), e.getMessage)
    }
    (1L to 4L).foreach { s =>
      Seq(GraphGen.barabasiAlbert(3, 1, s), GraphGen.erdosRenyi(3, 0.0, s)).foreach { g =>
        assert(g.isConnected && !g.isBipartite && g.m == 3, s"seed $s")
      }
    }
  }

  test("all dataset analogs are ergodic with the intended average degree") {
    GraphGen.analogs.foreach { case (name, (n, mA)) =>
      val g = analogGraphs(name)
      assert(g.n == n, name)
      assert(g.isConnected && !g.isBipartite, name)
      val target = 2.0 * mA
      assert(math.abs(g.avgDegree - target) / target < 0.25,
        s"$name: avgDegree=${g.avgDegree}, target=$target")
    }
  }

  test("analog average degrees are ordered like the paper's Table 3") {
    def avg(name: String) = analogGraphs(name).avgDegree
    assert(avg("orkut-lite") > avg("friendster-lite"))
    assert(avg("friendster-lite") > avg("livejournal-lite"))
    assert(avg("livejournal-lite") > avg("dblp-lite"))
    assert(avg("facebook-lite") > avg("livejournal-lite"))
    assert(avg("dblp-lite") > avg("youtube-lite") || avg("dblp-lite") > 5.0)
  }

  test("unknown analog name raises") {
    intercept[IllegalArgumentException](GraphGen.datasetAnalog("nope"))
  }

  test("datasetAnalog is deterministic per name") {
    val a = analogGraphs("facebook-lite")
    val b = GraphGen.datasetAnalog("facebook-lite")
    assert(a.m == b.m && a.neighbors.toSeq == b.neighbors.toSeq)
  }
}
