package repro.select

import repro.sketch.SketchSet

/** Sequential CELF seed selection (Alg. 2) — the baseline both parallel
  * structures are measured against, and the strategy of the InfuserMG /
  * StaticGreedy baselines.
  *
  * The priority queue holds each live vertex once, as its stale [[Key]].
  * A vertex already re-evaluated in the current round is selected
  * on pop without another evaluation (the standard CELF freshness flag).
  * As in the systems the paper describes (Sec. 4: "existing parallel
  * implementations only parallelize the evaluation function MARGINAL"),
  * the only parallelism is inside `gain` (over the R sketches).
  */
final class CelfSelector(parallelMarginal: Boolean = true) extends Selector {
  override def name: String = "CELF"

  override def select(sk: SketchSet, k: Int): SelectionResult = {
    val n = sk.g.n
    // Round-0 gains are true gains (S = ∅), so the whole population
    // starts "fresh": the first seed costs zero re-evaluations, exactly
    // MixGreedy's first-seed-from-memoization observation.
    val lastEvalRound = new Array[Int](n)
    // Max-PQ on keys; a re-evaluated vertex is reinserted with its new
    // key. Sized to n up front: it never holds more than n keys.
    val pq = new java.util.PriorityQueue[java.lang.Long](math.max(n, 1),
      java.util.Collections.reverseOrder[java.lang.Long]())
    var v = 0
    while (v < n) { pq.add(Key.of(sk.initGains(v), v)); v += 1 }

    val seeds = new Array[Int](math.min(k, n))
    var evals = 0L
    var round = 0
    while (round < seeds.length) {
      var chosen = -1
      while (chosen < 0) {
        val top = Key.id(pq.poll())
        if (lastEvalRound(top) == round || pq.isEmpty) {
          chosen = top
        } else {
          val key = Key.of(sk.gain(top, parallel = parallelMarginal), top)
          lastEvalRound(top) = round
          evals += 1
          if (key > pq.peek()) chosen = top
          else pq.add(key)
        }
      }
      seeds(round) = chosen
      sk.markSeed(chosen)
      round += 1
    }
    // Heap array of n refs + n boxed Longs (24 B each) + freshness flags.
    SelectionResult(seeds, evals, 32L * n)
  }
}
