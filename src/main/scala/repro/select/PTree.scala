package repro.select

import repro.util.Rand

/** A balanced binary search tree over [[Key]]s supporting the two bulk
  * operations Alg. 4 needs:
  *
  *  - `splitAndRemove(k)`: extract the k best keys;
  *  - `batchInsert(batch)`: insert a set of keys.
  *
  * This is our stand-in for PAM's P-tree [11, 13, 74]: a join-based treap
  * (same algorithmic family — join/split-structured balanced BSTs) with
  * subtree sizes for rank splits and O(n) construction from sorted input
  * (cartesian-tree build). Keys are ordered best-first (descending), and
  * heap priorities are a hash of the vertex id, so the shape is
  * deterministic.
  *
  * Trees are immutable; each round's split/insert returns a new root.
  */
object PTree {

  final class Node(val key: Long, val left: Node, val right: Node) {
    val size: Int = 1 + PTree.size(left) + PTree.size(right)
    val prio: Long = prioOf(key)
  }

  @inline def size(t: Node): Int = if (t == null) 0 else t.size

  @inline private def prioOf(key: Long): Long = Rand.mix64(Key.id(key).toLong)

  /** O(n) cartesian-tree build after one primitive sort of the keys. */
  def build(keys: Array[Long]): Node = {
    val sorted = keys.clone()
    java.util.Arrays.sort(sorted)
    // Rightmost-spine construction maintaining the max-heap on prio,
    // walking the keys best-first (the sorted array backwards), on a
    // mutable mirror (rights are rewired as nodes arrive), frozen into
    // immutable Nodes at the end.
    final class M(val key: Long, var left: M, var right: M) { val prio: Long = prioOf(key) }
    var top = -1
    val stack = new Array[M](sorted.length)
    var i = sorted.length - 1
    var mroot: M = null
    while (i >= 0) {
      val m = new M(sorted(i), null, null)
      var last: M = null
      while (top >= 0 && stack(top).prio < m.prio) { last = stack(top); top -= 1 }
      m.left = last
      if (top >= 0) stack(top).right = m else mroot = m
      top += 1; stack(top) = m
      i -= 1
    }
    def freeze(m: M): Node =
      if (m == null) null else new Node(m.key, freeze(m.left), freeze(m.right))
    freeze(mroot)
  }

  /** Split off the k best keys: returns (those keys best-first, remaining tree). */
  def splitAndRemove(t: Node, k: Int): (Array[Long], Node) = {
    val kk = math.min(k, size(t))
    val out = new Array[Long](kk)
    var outPos = 0
    def collect(x: Node): Unit =
      if (x != null) { collect(x.left); out(outPos) = x.key; outPos += 1; collect(x.right) }
    def go(x: Node, need: Int): Node = {
      if (need == 0) return x
      if (x == null) return null
      val ls = size(x.left)
      // x stays: join the rest of its left subtree, its right subtree and x.
      if (need <= ls) insertRoot(merge2(go(x.left, need), x.right), x.key)
      else {
        collect(x.left)
        out(outPos) = x.key; outPos += 1
        go(x.right, need - ls - 1)
      }
    }
    val rest = go(t, kk)
    require(outPos == kk, s"splitAndRemove extracted $outPos != $kk")
    (out, rest)
  }

  /** Merge two treaps where every key of l precedes every key of r. */
  private def merge2(l: Node, r: Node): Node = {
    if (l == null) return r
    if (r == null) return l
    if (l.prio >= r.prio) new Node(l.key, l.left, merge2(l.right, r))
    else new Node(r.key, merge2(l, r.left), r.right)
  }

  /** Standard treap insert of a single key. */
  def insertRoot(t: Node, key: Long): Node = {
    if (t == null) return new Node(key, null, null)
    if (prioOf(key) > t.prio) {
      val (lo, hi) = splitByKey(t, key)
      new Node(key, lo, hi)
    } else if (key > t.key) {
      new Node(t.key, insertRoot(t.left, key), t.right)
    } else {
      new Node(t.key, t.left, insertRoot(t.right, key))
    }
  }

  /** Split by key: (keys higher than `key`, the rest). The key itself is
    * assumed absent (selectors never reinsert a live key).
    */
  private def splitByKey(t: Node, key: Long): (Node, Node) = {
    if (t == null) return (null, null)
    if (t.key > key) {
      val (lo, hi) = splitByKey(t.right, key)
      (new Node(t.key, t.left, lo), hi)
    } else {
      val (lo, hi) = splitByKey(t.left, key)
      (lo, new Node(t.key, hi, t.right))
    }
  }

  /** Insert a batch of keys. */
  def batchInsert(t: Node, keys: Array[Long]): Node = keys.foldLeft(t)(insertRoot)

  /** The best key (the paper's T.Max()), or Long.MinValue — below every
    * vertex's key — if the tree is empty.
    */
  def maxKey(t: Node): Long = {
    if (t == null) return Long.MinValue
    var x = t
    while (x.left != null) x = x.left
    x.key
  }

  /** In-order keys (best-first) — test helper. */
  def toList(t: Node): List[Long] = {
    val b = List.newBuilder[Long]
    def go(x: Node): Unit = if (x != null) { go(x.left); b += x.key; go(x.right) }
    go(t)
    b.result()
  }

  /** Structural byte estimate: object header + 2 refs + key + size + prio. */
  def bytes(t: Node): Long = 40L * size(t)
}
