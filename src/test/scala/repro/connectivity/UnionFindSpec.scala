package repro.connectivity

import org.scalatest.funsuite.AnyFunSuite
import repro.TestRefs
import repro.graph.GraphGen
import repro.prob.{Constant, ProbModel, UniformHash, WIC}
import repro.sample.EdgeSampler

class UnionFindSpec extends AnyFunSuite {

  test("singletons before any union") {
    val uf = new UnionFind(5)
    (0 until 5).foreach(v => assert(uf.find(v) == v))
    assert(uf.labels.toSeq == (0 until 5))
  }

  test("union merges and is idempotent") {
    val uf = new UnionFind(4)
    assert(uf.union(0, 1))
    assert(!uf.union(1, 0))
    assert(uf.find(0) == uf.find(1) && uf.find(0) != uf.find(2))
    assert(uf.labels.toSeq == Seq(0, 0, 2, 3))
  }

  test("transitive connectivity") {
    val uf = new UnionFind(6)
    uf.union(0, 1); uf.union(1, 2); uf.union(3, 4)
    assert(uf.find(0) == uf.find(2))
    assert(uf.find(2) != uf.find(3))
    assert(uf.labels.toSeq == Seq(0, 0, 0, 3, 3, 5))
  }

  test("labels are the component minimum") {
    val uf = new UnionFind(6)
    uf.union(5, 3); uf.union(3, 1); uf.union(0, 4)
    val l = uf.labels
    assert(l(5) == 1 && l(3) == 1 && l(1) == 1)
    assert(l(0) == 0 && l(4) == 0)
    assert(l(2) == 2)
  }

  test("reset() gives singletons again after unions") {
    val uf = new UnionFind(6)
    uf.union(0, 1); uf.union(2, 3); uf.union(1, 3); uf.union(4, 5)
    assert(uf.labels.toSeq == Seq(0, 0, 0, 0, 4, 4))
    uf.reset()
    (0 until 6).foreach(v => assert(uf.find(v) == v))
    assert(uf.labels.toSeq == (0 until 6))
    // Sizes are reset too: after reset, a union is by size again from 1.
    uf.union(5, 4); uf.union(3, 4)
    assert(uf.labels.toSeq == Seq(0, 1, 2, 3, 3, 3))
  }

  test("random graphs: UF labels == BFS labels") {
    (0 until 10).foreach { s =>
      val g = GraphGen.erdosRenyi(300, 200 + 50 * s, seed = 100 + s)
      assert(LocalCC.byUnionFind(g).toSeq == TestRefs.bfsCC(g).toSeq, s"seed $s")
    }
  }
}

class LocalCCSpec extends AnyFunSuite {

  test("coloring == union-find on full graphs") {
    (0 until 8).foreach { s =>
      val g = GraphGen.erdosRenyi(250, 300, seed = 200 + s)
      assert(LocalCC.byColoring(g).toSeq == LocalCC.byUnionFind(g).toSeq, s"seed $s")
    }
  }

  test("coloring == union-find on a high-diameter path") {
    val g = GraphGen.path(500)
    assert(LocalCC.byColoring(g).toSeq == LocalCC.byUnionFind(g).toSeq)
    assert(LocalCC.byUnionFind(g).forall(_ == 0))
  }

  test("sampled CC matches BFS on the same sampled graph") {
    val g = GraphGen.erdosRenyi(300, 900, seed = 300)
    val sampler = EdgeSampler.forSketches(Constant(0.4))
    (0 until 6).foreach { r =>
      val uf = LocalCC.byUnionFind(g, sampler, r)
      val col = LocalCC.byColoring(g, sampler, r)
      val bfs = TestRefs.bfsCC(g, sampler, r)
      assert(uf.toSeq == bfs.toSeq, s"UF sketch $r")
      assert(col.toSeq == bfs.toSeq, s"coloring sketch $r")
    }
  }

  test("different sketch ids sample different graphs") {
    val g = GraphGen.erdosRenyi(200, 800, seed = 301)
    val sampler = EdgeSampler.forSketches(Constant(0.3))
    val a = LocalCC.byUnionFind(g, sampler, 0)
    val b = LocalCC.byUnionFind(g, sampler, 1)
    assert(a.toSeq != b.toSeq)
  }

  test("p=1 sampling keeps the whole graph; p=0 isolates everything") {
    val g = GraphGen.grid(10, 10)
    val all = LocalCC.byUnionFind(g, EdgeSampler.forSketches(Constant(1.0)), 0)
    assert(all.forall(_ == 0))
    val none = LocalCC.byUnionFind(g, EdgeSampler.forSketches(Constant(0.0)), 0)
    assert(none.toSeq == (0 until 100))
  }

  // Label sketches 0 until numSk in blocks of LocalCC.Block, as the build does.
  private def blockLabels(g: repro.graph.CSRGraph, sampler: EdgeSampler, numSk: Int,
                          coloring: Boolean): Seq[Seq[Int]] = {
    val B = LocalCC.Block
    val out = Array.fill(B)(new Array[Int](g.n))
    val ufs = Array.fill(B)(new UnionFind(g.n))
    (0 until numSk by B).flatMap { r0 =>
      val count = math.min(B, numSk - r0)
      if (coloring) LocalCC.coloringBlock(g, sampler, r0, count, out)
      else LocalCC.unionFindBlock(g, sampler, r0, count, ufs, out, new Array[Int](g.n))
      (0 until count).map(b => out(b).toSeq)
    }
  }

  test("block labels equal per-sketch labels for both CCs, every prob model, any R") {
    val g = GraphGen.rmat(300, 1500, seed = 302)
    val models: Seq[ProbModel] =
      Seq(Constant(0.0), Constant(1.0), Constant(0.3), UniformHash(0.05, 0.5), WIC.of(g))
    val B = LocalCC.Block
    models.foreach { m =>
      val sampler = EdgeSampler.forSketches(m)
      Seq(1, B - 3, B, 2 * B + 5).foreach { numSk =>
        val uf = (0 until numSk).map(r => LocalCC.byUnionFind(g, sampler, r).toSeq)
        val col = (0 until numSk).map(r => LocalCC.byColoring(g, sampler, r).toSeq)
        assert(uf == col, s"${m.label} R=$numSk")
        assert(blockLabels(g, sampler, numSk, coloring = false) == uf, s"UF ${m.label} R=$numSk")
        assert(blockLabels(g, sampler, numSk, coloring = true) == uf, s"coloring ${m.label} R=$numSk")
      }
    }
  }

  test("block buffers are reused: a block after another gives the same labels") {
    val g = GraphGen.erdosRenyi(200, 500, seed = 303)
    val sampler = EdgeSampler.forSketches(Constant(0.4))
    val B = LocalCC.Block
    val out = Array.fill(B)(new Array[Int](g.n))
    val ufs = Array.fill(B)(new UnionFind(g.n))
    val firstOf = new Array[Int](g.n)
    LocalCC.unionFindBlock(g, sampler, 0, B, ufs, out, firstOf)
    LocalCC.unionFindBlock(g, sampler, 7, 3, ufs, out, firstOf)
    (0 until 3).foreach(b => assert(out(b).toSeq == LocalCC.byUnionFind(g, sampler, 7 + b).toSeq))
    LocalCC.coloringBlock(g, sampler, 0, B, out)
    LocalCC.coloringBlock(g, sampler, 7, 3, out)
    (0 until 3).foreach(b => assert(out(b).toSeq == LocalCC.byUnionFind(g, sampler, 7 + b).toSeq))
  }

  test("block functions reject an oversized block and a multi-sketch all-edges block") {
    val g = GraphGen.path(10)
    val sampler = EdgeSampler.forSketches(Constant(0.5))
    val out = Array.fill(LocalCC.Block + 1)(new Array[Int](g.n))
    intercept[IllegalArgumentException](LocalCC.coloringBlock(g, sampler, 0, LocalCC.Block + 1, out))
    intercept[IllegalArgumentException](LocalCC.coloringBlock(g, sampler, 0, 0, out))
    intercept[IllegalArgumentException](LocalCC.coloringBlock(g, null, -1, 2, out))
  }
}
