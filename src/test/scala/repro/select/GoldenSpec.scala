package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PaCIM
import repro.graph.GraphGen
import repro.prob.{Constant, UniformHash}
import repro.sketch.SketchBuilder

/** Pinned seeds and evaluation counts of all three selectors on two fixed
  * cases. Win-Tree runs with `seqCutoffDepth = 0` (no forking), so its
  * count is deterministic too. Any change to the selection order — the
  * (gain, id) key — or to the selectors' laziness shows up here.
  */
class GoldenSpec extends AnyFunSuite {

  private val rmatSeeds = Seq(4, 204, 39, 154, 209, 105, 120, 81, 149, 180, 233, 75, 124, 135, 138)
  private val uniformSeeds = Seq(0, 146, 112, 84, 29, 58, 116, 124)

  // (case, graph, model, k, seeds, (CELF, P-tree, Win-Tree) evaluations)
  private val cases = Seq(
    ("rmat", GraphGen.rmat(256, 1500, seed = 53), Constant(0.08), 15, rmatSeeds, (220L, 292L, 235L)),
    ("uniform-p", GraphGen.rmat(200, 1000, seed = 55), UniformHash(0.0, 0.2), 8, uniformSeeds,
      (169L, 211L, 171L)),
  )

  for ((name, g, model, k, seeds, (celfEvals, ptreeEvals, winEvals)) <- cases; alpha <- Seq(0.15, 1.0)) {
    test(s"[$name/alpha=$alpha] seeds and evaluation counts match the pinned values") {
      val sk = SketchBuilder.build(g, model, 12, alpha)
      Seq[(Selector, Long)](
        (new CelfSelector(), celfEvals),
        (new PTreeSelector(), ptreeEvals),
        (new WinTreeSelector(seqCutoffDepth = 0), winEvals),
      ).foreach { case (sel, evals) =>
        val r = PaCIM.selectOn(sk, k, sel)
        assert(r.seeds.toSeq == seeds, sel.name)
        assert(r.evaluations == evals, sel.name)
      }
    }
  }
}
