package repro.sample

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.util.Rand

class ProbModelSpec extends AnyFunSuite {

  test("Constant returns p for every edge") {
    val m = Constant(0.37)
    assert(m.prob(1, 2) == 0.37 && m.prob(100, 5) == 0.37)
  }

  test("Constant rejects out-of-range p") {
    intercept[IllegalArgumentException](Constant(1.5))
    intercept[IllegalArgumentException](Constant(-0.1))
  }

  test("UniformHash is symmetric, in range, and varies per edge") {
    val m = UniformHash(0.1, 0.3)
    val ps = for (u <- 0 until 50; v <- u + 1 until 50) yield m.prob(u, v)
    assert(ps.forall(p => p >= 0.1 && p < 0.3))
    assert(ps.distinct.size > ps.size / 2)
    assert(m.prob(3, 9) == m.prob(9, 3))
  }

  test("UniformHash empirical mean is the interval midpoint") {
    val m = UniformHash(0.0, 0.1)
    val ps = for (u <- 0 until 200; v <- u + 1 until 200) yield m.prob(u, v)
    assert(math.abs(ps.sum / ps.size - 0.05) < 0.002)
  }

  test("WIC gives 2/(du+dv), capped at 1") {
    val g = GraphGen.star(5) // center degree 4, leaves degree 1
    val m = WIC.of(g)
    assert(math.abs(m.prob(0, 1) - 2.0 / 5) < 1e-12)
    assert(m.prob(1, 2) == 1.0) // two degree-1 vertices (not an edge, still defined)
  }

  test("WIC is symmetric") {
    val g = GraphGen.rmat(256, 1500, seed = 21)
    val m = WIC.of(g)
    g.edgeList.foreach { case (u, v) => assert(m.prob(u, v) == m.prob(v, u)) }
  }
}

class EdgeSamplerSpec extends AnyFunSuite {

  test("sampling is deterministic in (edge, sketch)") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    (0 until 100).foreach { i =>
      assert(s.sample(i, i + 1, 3) == s.sample(i, i + 1, 3))
    }
  }

  test("sampling is symmetric in (u, v)") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    for (u <- 0 until 40; v <- u + 1 until 40; r <- 0 until 3)
      assert(s.sample(u, v, r) == s.sample(v, u, r))
  }

  test("different sketches sample differently") {
    val s = EdgeSampler.forSketches(Constant(0.5))
    val a = (0 until 200).map(i => s.sample(i, i + 1, 0))
    val b = (0 until 200).map(i => s.sample(i, i + 1, 1))
    assert(a != b)
  }

  test("different salts (sketch vs eval vs RIS) are independent draws") {
    val m = Constant(0.5)
    val a = (0 until 300).map(i => EdgeSampler.forSketches(m).sample(i, i + 1, 0))
    val b = (0 until 300).map(i => EdgeSampler.forEval(m).sample(i, i + 1, 0))
    val c = (0 until 300).map(i => EdgeSampler.forRis(m).sample(i, i + 1, 0))
    assert(a != b && b != c && a != c)
  }

  test("empirical sampling rate matches p") {
    val s = EdgeSampler.forSketches(Constant(0.2))
    var hits = 0
    val trials = 50000
    var i = 0
    while (i < trials) { if (s.sample(i, i + 1, 7)) hits += 1; i += 1 }
    assert(math.abs(hits.toDouble / trials - 0.2) < 0.01, s"rate=${hits.toDouble / trials}")
  }

  test("empirical rate matches per-edge UniformHash probabilities") {
    val m = UniformHash(0.0, 1.0)
    val s = EdgeSampler.forSketches(m)
    // For a fixed edge, the rate over many sketches must approach p_e.
    (0 until 5).foreach { e =>
      val p = m.prob(e, e + 1)
      val rate = (0 until 20000).count(r => s.sample(e, e + 1, r)).toDouble / 20000
      assert(math.abs(rate - p) < 0.02, s"edge $e: p=$p rate=$rate")
    }
  }

  test("sampleSalted with saltOf(r) is sample, and sample is hash01(edge, mix2(salt, r)) < p") {
    val g = GraphGen.rmat(256, 1500, seed = 22)
    val models = Seq(Constant(0.3), UniformHash(0.1, 0.3), WIC.of(g))
    models.foreach { m =>
      val s = EdgeSampler.forSketches(m)
      (0 until 40).foreach { r =>
        val rs = s.saltOf(r)
        assert(rs == Rand.mix2(EdgeSampler.SketchSalt, r.toLong))
        g.edgeList.foreach { case (u, v) =>
          val expect = Rand.hash01(Rand.edgeKey(u, v), rs) < m.prob(u, v)
          assert(s.sampleSalted(u, v, rs) == expect, s"${m.label} ($u,$v) on sketch $r")
          assert(s.sample(u, v, r) == expect, s"${m.label} ($u,$v) on sketch $r")
        }
      }
    }
  }

  test("the integer threshold ceil(p * 2^53) decides exactly as hash01 < p, next to every threshold") {
    val two53 = 1L << 53
    assert(1.1102230246251565e-16 == math.pow(2, -53), "hash01 scales by exactly 2^-53")
    val ps = Seq(0.0, math.pow(2, -53), 0.02, Math.nextUp(0.1), 0.1, Math.nextDown(0.1), 0.3,
      Math.nextDown(1.0), 1.0)
    ps.foreach { p =>
      val t = ProbModel.thresholdOf(p)
      assert(t >= 0 && t <= two53, s"p=$p t=$t")
      val xs = (Seq(0L, 1L, two53 - 2, two53 - 1) ++ (-3L to 3L).map(t + _)).filter(x => x >= 0 && x < two53)
      xs.foreach { x =>
        // hash01's value for the 53-bit hash x.
        val h01 = x * 1.1102230246251565e-16
        assert((h01 < p) == (x < t), s"p=$p x=$x t=$t")
      }
    }
    assert(ProbModel.thresholdOf(0.0) == 0 && ProbModel.thresholdOf(1.0) == two53)
    assert(ProbModel.thresholdOf(math.pow(2, -53)) == 1)
  }

  test("threshold, sampleSalted and sampleLanes agree with hash01 < p on every edge of a graph") {
    val g = GraphGen.rmat(256, 1500, seed = 23)
    val models: Seq[ProbModel] = Seq(Constant(0.02), Constant(Math.nextUp(0.1)), Constant(Math.nextDown(1.0)),
      UniformHash(0.1, 0.3), WIC.of(g))
    val numSk = 40
    models.foreach { m =>
      val s = EdgeSampler.forSketches(m)
      val salts = Array.tabulate(numSk)(s.saltOf)
      g.edgeList.foreach { case (u, v) =>
        assert(s.threshold(u, v) == ProbModel.thresholdOf(m.prob(u, v)), s"${m.label} ($u,$v)")
        val expect = salts.map(rs => Rand.hash01(Rand.edgeKey(u, v), rs) < m.prob(u, v))
        (0 until numSk).foreach(r => assert(s.sampleSalted(v, u, salts(r)) == expect(r), s"${m.label} ($u,$v) r=$r"))
        // Lanes in blocks of 16 sketches; bits outside `lanes` stay clear.
        (0 until numSk by 16).foreach { r0 =>
          val block = salts.slice(r0, r0 + 16)
          val all = (1 << block.length) - 1
          Seq(all, all & 0x5555, 0).foreach { lanes =>
            val want = block.indices.filter(b => ((lanes >>> b) & 1) == 1 && expect(r0 + b))
              .foldLeft(0)((acc, b) => acc | (1 << b))
            assert(s.sampleLanes(u, v, block, lanes) == want, s"${m.label} ($u,$v) block $r0 lanes $lanes")
          }
        }
      }
    }
  }

  test("p=0 never samples; p=1 always samples") {
    val zero = EdgeSampler.forSketches(Constant(0.0))
    val one = EdgeSampler.forSketches(Constant(1.0))
    for (i <- 0 until 1000; r <- 0 until 16) {
      assert(!zero.sample(i, i + 1, r), s"p=0 kept ($i,${i + 1}) on sketch $r")
      assert(one.sample(i, i + 1, r), s"p=1 dropped ($i,${i + 1}) on sketch $r")
    }
  }
}
