package repro.sketch

import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs
import repro.connectivity.LocalCC
import repro.graph.GraphGen
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.sample.EdgeSampler

class SketchSetSpec extends AnyFunSuite {

  private val alphas = Seq(0.0, 0.1, 0.5, 1.0)

  test("chooseCenters: bounds, determinism, uniqueness, sortedness") {
    val c = SketchBuilder.chooseCenters(1000, 0.1)
    assert(c.length == 100)
    assert(c.toSeq == c.sorted.toSeq)
    assert(c.distinct.length == c.length)
    assert(c.forall(v => v >= 0 && v < 1000))
    assert(SketchBuilder.chooseCenters(1000, 0.1).toSeq == c.toSeq)
    assert(SketchBuilder.chooseCenters(1000, 0.0).isEmpty)
    assert(SketchBuilder.chooseCenters(1000, 1.0).toSeq == (0 until 1000))
  }

  test("alpha=1 sketch stores every component size at its representative") {
    val g = GraphGen.erdosRenyi(200, 300, seed = 31)
    val model = Constant(0.5)
    val sk = SketchBuilder.build(g, model, numSketches = 4, alpha = 1.0)
    val sampler = EdgeSampler.forSketches(model)
    (0 until 4).foreach { r =>
      val cc = TestRefs.bfsCC(g, sampler, r)
      val sizes = cc.groupBy(identity).view.mapValues(_.length).toMap
      (0 until g.n).foreach { v =>
        // With alpha=1 center index == vertex id; the label is the CC min.
        val rep = sk.getCenter(r, v)
        assert(rep == cc(v), s"label of $v on sketch $r")
        assert(~sk.comp(r)(rep) == sizes(rep), s"size at rep $rep sketch $r")
      }
    }
  }

  test("initGains equal the summed component size") {
    val g = GraphGen.erdosRenyi(150, 250, seed = 32)
    val model = Constant(0.4)
    val numSk = 8
    val sampler = EdgeSampler.forSketches(model)
    alphas.foreach { a =>
      val sk = SketchBuilder.build(g, model, numSk, a)
      (0 until g.n).foreach { v =>
        // sketchSigma divides an integer count by numSk = 8, a power of
        // two, so sigma * numSk is exact.
        val expect = TestRefs.sketchSigma(g, sampler, numSk, Seq(v)) * numSk
        assert(sk.initGains(v) == expect, s"alpha=$a v=$v")
      }
    }
  }

  test("gain on the empty seed set equals initGains for every alpha") {
    val g = GraphGen.rmat(256, 1200, seed = 33)
    val model = Constant(0.1)
    alphas.foreach { a =>
      val sk = SketchBuilder.build(g, model, 16, a)
      (0 until g.n by 7).foreach { v =>
        assert(sk.gain(v) == sk.initGains(v), s"alpha=$a v=$v")
        assert(sk.marginal(v) == sk.initGains(v).toDouble / 16, s"alpha=$a v=$v")
      }
    }
  }

  test("marginal values are IDENTICAL across alphas after seeding (compression changes cost, not values)") {
    val g = GraphGen.rmat(256, 1200, seed = 34)
    val model = Constant(0.1)
    val sks = alphas.map(a => SketchBuilder.build(g, model, 16, a))
    val seedsToMark = Seq(3, 77, 145)
    seedsToMark.foreach(s => sks.foreach(_.markSeed(s)))
    (0 until g.n by 5).filterNot(seedsToMark.contains).foreach { v =>
      val vals = sks.map(_.gain(v))
      assert(vals.forall(_ == vals.head), s"v=$v vals=$vals")
    }
  }

  test("marginal equals the brute-force marginal gain of sigma-hat") {
    val g = GraphGen.erdosRenyi(120, 260, seed = 35)
    val model = Constant(0.3)
    val numSk = 8
    val sampler = EdgeSampler.forSketches(model)
    val sk = SketchBuilder.build(g, model, numSk, alpha = 0.2)
    val seeds = Seq(5, 40)
    seeds.foreach(sk.markSeed)
    val base = TestRefs.sketchSigma(g, sampler, numSk, seeds)
    (0 until g.n by 3).filterNot(seeds.contains).foreach { v =>
      val expect = (TestRefs.sketchSigma(g, sampler, numSk, seeds :+ v) - base) * numSk
      assert(sk.gain(v) == expect, s"v=$v")
    }
  }

  test("marginal of a seed is zero") {
    val g = GraphGen.erdosRenyi(100, 200, seed = 36)
    val sk = SketchBuilder.build(g, Constant(0.3), 8, 0.3)
    sk.markSeed(17)
    assert(sk.marginal(17) == 0.0)
    assert(sk.gain(17) == 0)
    assert(sk.seeded(17))
  }

  test("sequential and parallel marginal agree") {
    val g = GraphGen.rmat(512, 2500, seed = 37)
    val sk = SketchBuilder.build(g, Constant(0.05), 32, 0.1)
    sk.markSeed(9)
    (0 until g.n by 17).foreach { v =>
      assert(sk.gain(v, parallel = false) == sk.gain(v, parallel = true))
    }
  }

  test("copy isolates seed markings") {
    val g = GraphGen.erdosRenyi(100, 300, seed = 38)
    val sk = SketchBuilder.build(g, Constant(0.4), 8, 1.0)
    val before = sk.marginal(50)
    val c = sk.copy()
    c.markSeed(50)
    assert(c.marginal(50) == 0.0)
    assert(sk.marginal(50) == before, "original sketches must be untouched")
  }

  test("UF-built and coloring-built sketches are identical") {
    val g = GraphGen.rmat(300, 1500, seed = 39)
    val model = UniformHash(0.0, 0.3)
    val a = SketchBuilder.build(g, model, 8, 0.2, SketchBuilder.CCAlgo.UnionFind)
    val b = SketchBuilder.build(g, model, 8, 0.2, SketchBuilder.CCAlgo.Coloring)
    (0 until 8).foreach(r => assert(a.comp(r).toSeq == b.comp(r).toSeq))
    assert(a.initGains.toSeq == b.initGains.toSeq)
  }

  test("the fused block build equals fromCCLabels over per-sketch labels (both CCs, any R)") {
    val g = GraphGen.rmat(400, 2200, seed = 45)
    val models: Seq[ProbModel] = Seq(Constant(0.0), Constant(1.0), Constant(0.2), UniformHash(0.0, 0.3), WIC.of(g))
    val B = LocalCC.Block
    for (m <- models; numSk <- Seq(1, B - 5, 2 * B + 3); alpha <- Seq(0.1, 1.0)) {
      val sampler = EdgeSampler.forSketches(m)
      val centers = SketchBuilder.chooseCenters(g.n, alpha)
      val ref = SketchBuilder.fromCCLabels(g, sampler, numSk, centers)(LocalCC.byUnionFind(g, sampler, _))
      Seq(SketchBuilder.CCAlgo.UnionFind, SketchBuilder.CCAlgo.Coloring).foreach { cc =>
        val sk = SketchBuilder.build(g, m, numSk, alpha, cc)
        val what = s"${m.label} R=$numSk alpha=$alpha $cc"
        assert(sk.centers.toSeq == centers.toSeq, what)
        (0 until numSk).foreach(r => assert(sk.comp(r).toSeq == ref.comp(r).toSeq, s"$what sketch $r"))
        assert(sk.initGains.toSeq == ref.initGains.toSeq, what)
      }
    }
  }

  test("fromCCLabels rejects R * n beyond Int.MaxValue (a gain must fit in an Int)") {
    val g = GraphGen.empty(1 << 16)
    val sampler = EdgeSampler.forSketches(Constant(0.5))
    val e = intercept[IllegalArgumentException](
      SketchBuilder.fromCCLabels(g, sampler, (1 << 15) + 1, Array.empty[Int])(_ => fail("no CC may run")))
    assert(e.getMessage.contains("numSketches * n"))
  }

  test("fromCCLabels is lossless for any sorted center set, and rejects unsorted or out-of-range centers") {
    val g = GraphGen.rmat(300, 1400, seed = 43)
    val model = UniformHash(0.0, 0.3)
    val sampler = EdgeSampler.forSketches(model)
    val numSk = 8
    val build = (centers: Array[Int]) =>
      SketchBuilder.fromCCLabels(g, sampler, numSk, centers)(LocalCC.byUnionFind(g, sampler, _))
    val full = SketchBuilder.build(g, model, numSk, alpha = 1.0)
    val rng = new scala.util.Random(44)
    val subsets = Seq(Array.empty[Int], Array.tabulate(g.n)(identity)) ++
      Seq(0.02, 0.3, 0.7).map(f => (0 until g.n).filter(_ => rng.nextDouble() < f).toArray)
    val seeds = Seq(4, 120, 255)
    seeds.foreach(full.markSeed)
    subsets.foreach { centers =>
      val sk = build(centers)
      seeds.foreach(sk.markSeed)
      (0 until g.n).foreach(v => assert(sk.gain(v) == full.gain(v), s"rho=${centers.length} v=$v"))
    }
    Seq(Array(3, 1), Array(2, 2), Array(-1, 5), Array(0, g.n)).foreach { bad =>
      val e = intercept[IllegalArgumentException](build(bad))
      assert(e.getMessage.contains("centers"), bad.mkString(","))
    }
  }

  test("sketchBytes follows the O((1+alpha R)n) model") {
    val g = GraphGen.erdosRenyi(1000, 3000, seed = 40)
    val r = 16
    val skFull = SketchBuilder.build(g, Constant(0.2), r, 1.0)
    val skComp = SketchBuilder.build(g, Constant(0.2), r, 0.1)
    assert(skFull.sketchBytes == 4L * r * 1000 + 8L * 1000)
    assert(skComp.sketchBytes == 4L * r * 100 + 8L * 1000)
  }

  test("Thm 3.1: expected BFS visits per evaluation bounded by ~min(1/alpha, T)") {
    val g = GraphGen.rmat(2048, 20000, seed = 41)
    val model = Constant(0.05)
    val numSk = 16
    val alpha = 0.1
    val sk = SketchBuilder.build(g, model, numSk, alpha)
    sk.visitCounter.reset()
    val evalVerts = (0 until g.n by 11).toArray
    evalVerts.foreach(v => sk.marginal(v))
    val visitsPerGetCenter = sk.visitCounter.sum().toDouble / (evalVerts.length.toLong * numSk)
    // Expected stopping time is 1/alpha = 10; allow generous slack for the
    // geometric tail and for small components.
    assert(visitsPerGetCenter < 3.0 / alpha, s"visits/GetCenter=$visitsPerGetCenter")
  }

  test("alpha=1 evaluations visit exactly one vertex per sketch") {
    val g = GraphGen.erdosRenyi(500, 1500, seed = 42)
    val sk = SketchBuilder.build(g, Constant(0.2), 8, 1.0)
    sk.visitCounter.reset()
    sk.marginal(123)
    assert(sk.visitCounter.sum() == 8)
  }

  test("GetCenter visit counts after seeding are pinned (Thm 3.1 accounting)") {
    // Fixed sweep: every vertex evaluated sequentially and in parallel
    // after marking five seeds. A change to where GetCenter's BFS stops,
    // or to what it counts, moves these counts; the gains stay put.
    val g = GraphGen.rmat(512, 3000, seed = 41)
    val model = UniformHash(0.05, 0.25)
    val expected = Map(0.0 -> (6362L, 413888L), 0.15 -> (236L, 60906L))
    expected.foreach { case (alpha, (markVisits, sweepVisits)) =>
      val sk = SketchBuilder.build(g, model, numSketches = 16, alpha = alpha)
      Seq(5, 60, 130, 301, 444).foreach(sk.markSeed)
      assert(sk.visitCounter.sum() == markVisits, s"markSeed visits, alpha=$alpha")
      var seq, par = 0L
      (0 until g.n).foreach { v => seq += sk.gain(v); par += sk.gain(v, parallel = true) }
      assert(seq == 4460 && par == 4460, s"gain sums, alpha=$alpha")
      assert(sk.visitCounter.sum() - markVisits == sweepVisits, s"sweep visits, alpha=$alpha")
    }
  }

  test("markSeed zeroes exactly the component's representative size") {
    val g = GraphGen.path(10) // one CC when p=1
    val sk = SketchBuilder.build(g, Constant(1.0), 2, 1.0)
    assert(sk.comp(0)(0) == ~10)
    sk.markSeed(5)
    (0 until 2).foreach { r =>
      assert(sk.comp(r)(0) == ~0)
      (0 until 10).foreach(v => assert(sk.marginal(v) == 0.0))
    }
  }
}
