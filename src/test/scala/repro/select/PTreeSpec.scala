package repro.select

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rand

class KeySpec extends AnyFunSuite {
  test("higher score wins") {
    assert(Key.of(2, 5) > Key.of(1, 3))
    assert(Key.of(1, 0) > Key.of(0, 3))
  }
  test("ties break toward smaller id") {
    assert(Key.of(1, 3) > Key.of(1, 5))
    assert(Key.of(0, 0) > Key.of(0, Int.MaxValue - 1))
  }
  test("strict: a key never beats itself") {
    assert(!(Key.of(1, 3) > Key.of(1, 3)))
  }
  test("total: exactly one of better(a,b), better(b,a) for distinct keys") {
    val rng = new Rand.Pcg(1)
    (1 to 2000).foreach { _ =>
      val g1 = rng.nextInt(5); val g2 = rng.nextInt(5)
      val i1 = rng.nextInt(100); val i2 = rng.nextInt(100)
      val (a, b) = (Key.of(g1, i1), Key.of(g2, i2))
      if ((g1, i1) != (g2, i2)) assert((a > b) != (b > a))
      // The key orders exactly as (gain desc, id asc).
      assert((a > b) == (g1 > g2 || (g1 == g2 && i1 < i2)))
    }
  }
  test("id and gain round-trip at the extremes") {
    val rn = 256 * 140600 // R * n of the largest stand-in graph
    for (gain <- Seq(0, 1, rn, Int.MaxValue); id <- Seq(0, 1, rn - 1, Int.MaxValue - 1)) {
      val key = Key.of(gain, id)
      assert(Key.gain(key) == gain && Key.id(key) == id, s"gain=$gain id=$id")
      assert(key > Long.MinValue)
    }
  }
}

class PTreeSpec extends AnyFunSuite {

  /** Reference ordering: best-first (gain desc, id asc), as keys. */
  private def refSort(ids: Seq[Int], gain: Int => Int): Seq[Long] =
    ids.sortBy(v => (-gain(v), v)).map(v => Key.of(gain(v), v))

  private def keysOf(ids: Seq[Int], gain: Int => Int): Array[Long] =
    ids.map(v => Key.of(gain(v), v)).toArray

  private def randomGains(n: Int, seed: Int, distinctVals: Int = 50): Array[Int] = {
    val rng = new Rand.Pcg(seed)
    Array.fill(n)(rng.nextInt(distinctVals)) // deliberate gain ties
  }

  private def buildAll(gains: Array[Int]): PTree.Node = PTree.build(keysOf(gains.indices, gains(_)))

  test("build produces the reference in-order sequence") {
    (1 to 10).foreach { s =>
      val n = 1 + s * 37
      val gains = randomGains(n, s)
      val t = buildAll(gains)
      assert(PTree.size(t) == n)
      assert(PTree.toList(t) == refSort(0 until n, gains(_)).toList, s"seed $s")
    }
  }

  test("maxKey returns the best key, and Long.MinValue when empty") {
    val gains = randomGains(500, 99)
    val t = buildAll(gains)
    assert(PTree.maxKey(t) == refSort(0 until 500, gains(_)).head)
    assert(PTree.maxKey(null) == Long.MinValue)
  }

  test("splitAndRemove extracts the k best, in order, removing them") {
    val n = 300
    val gains = randomGains(n, 5)
    val ref = refSort(0 until n, gains(_))
    Seq(1, 2, 7, 64, 300).foreach { k =>
      val t = buildAll(gains)
      val (top, rest) = PTree.splitAndRemove(t, k)
      assert(top.toSeq == ref.take(k))
      assert(PTree.toList(rest) == ref.drop(k).toList)
      assert(PTree.size(rest) == n - k)
    }
  }

  test("splitAndRemove beyond size empties the tree") {
    val gains = randomGains(10, 6)
    val t = buildAll(gains)
    val (top, rest) = PTree.splitAndRemove(t, 50)
    assert(top.length == 10 && rest == null)
  }

  test("repeated splitAndRemove(1) drains best-first") {
    val n = 120
    val gains = randomGains(n, 7)
    var t = buildAll(gains)
    val drained = (0 until n).map { _ =>
      val (a, rest) = PTree.splitAndRemove(t, 1)
      t = rest
      a(0)
    }
    assert(drained == refSort(0 until n, gains(_)))
  }

  test("batchInsert restores removed keys (possibly with new scores)") {
    val n = 200
    val gains = randomGains(n, 8)
    var t = buildAll(gains)
    val (batch, rest) = PTree.splitAndRemove(t, 40)
    t = rest
    // Lower the gains (as re-evaluation does) and reinsert.
    val ids = batch.map(Key.id)
    ids.foreach(v => gains(v) = gains(v) / 2)
    t = PTree.batchInsert(t, keysOf(ids.toSeq, gains(_)))
    assert(PTree.size(t) == n)
    assert(PTree.toList(t) == refSort(0 until n, gains(_)).toList)
  }

  test("interleaved split/insert keeps the reference order (fuzz)") {
    val n = 150
    val gains = randomGains(n, 9)
    var live = (0 until n).toSet
    var t = buildAll(gains)
    val rng = new Rand.Pcg(10)
    (1 to 60).foreach { _ =>
      val k = 1 + rng.nextInt(20)
      val (batch, rest) = PTree.splitAndRemove(t, k)
      t = rest
      val ids = batch.map(Key.id)
      ids.foreach { v => gains(v) = math.max(0, gains(v) - rng.nextInt(3)) }
      // Keep one out (as seed selection does), reinsert the others.
      val keepOut = ids(rng.nextInt(ids.length))
      live -= keepOut
      t = PTree.batchInsert(t, keysOf(ids.toSeq.filter(_ != keepOut), gains(_)))
      assert(PTree.size(t) == live.size)
      assert(PTree.toList(t) == refSort(live.toSeq, gains(_)).toList)
    }
  }

  test("treap shape is deterministic (priorities from ids)") {
    val gains = randomGains(80, 11)
    val a = buildAll(gains)
    val b = buildAll(gains)
    def shape(t: PTree.Node): String =
      if (t == null) "." else s"(${Key.id(t.key)}${shape(t.left)}${shape(t.right)})"
    assert(shape(a) == shape(b))
  }

  test("heap property on priorities holds after operations") {
    val n = 100
    val gains = randomGains(n, 12)
    var t = buildAll(gains)
    val (batch, rest) = PTree.splitAndRemove(t, 30)
    t = PTree.batchInsert(rest, batch)
    def check(x: PTree.Node): Unit = if (x != null) {
      if (x.left != null) assert(x.prio >= x.left.prio)
      if (x.right != null) assert(x.prio >= x.right.prio)
      check(x.left); check(x.right)
    }
    check(t)
  }

  test("bytes scale with size") {
    val gains = randomGains(64, 13)
    val t = buildAll(gains)
    assert(PTree.bytes(t) == 40L * 64)
  }
}
