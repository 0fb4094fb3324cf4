package repro.select

import repro.sketch.SketchSet
import repro.util.Par

/** P-tree–based parallel seed selection (Alg. 4).
  *
  * Per round: extract the batch of the 1, 2, 4, … (prefix doubling)
  * highest keys from the tree, re-evaluate each batch *in parallel*, and
  * stop once the best true key beats the tree's best stale key —
  * then the un-chosen evaluated vertices go back with their new keys.
  *
  * Guarantees (tested): selects exactly CELF's seeds (Thm. 4.1) with at
  * most 2× CELF's evaluations (Thm. 4.2).
  */
final class PTreeSelector extends Selector {
  override def name: String = "P-tree"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    val n = sk.g.n
    var tree = PTree.build(Array.tabulate(n)(v => Key.of(sk.initGains(v), v)))
    val structBytes = PTree.bytes(tree)

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var best = Long.MinValue
      val pending = Array.newBuilder[Long] // evaluated, not selected
      var batchSize = 1
      var stop = false
      // Round 0's keys are true keys: take the max directly.
      if (round == 0) {
        val (keys, rest) = PTree.splitAndRemove(tree, 1)
        tree = rest
        best = keys(0)
        stop = true
      }
      while (!stop) {
        val (batch, rest) = PTree.splitAndRemove(tree, batchSize)
        tree = rest
        Par.parFor(batch.length) { i =>
          val v = Key.id(batch(i))
          batch(i) = Key.of(sk.gain(v), v)
        }
        evals += batch.length
        batch.foreach { key =>
          if (key > best) {
            if (best != Long.MinValue) pending += best
            best = key
          } else pending += key
        }
        stop = best > PTree.maxKey(tree)
        batchSize <<= 1
      }
      tree = PTree.batchInsert(tree, pending.result())
      seeds(round) = Key.id(best)
      sk.markSeed(seeds(round))
      round += 1
    }
    SelectionResult(seeds, evals, structBytes)
  }
}
