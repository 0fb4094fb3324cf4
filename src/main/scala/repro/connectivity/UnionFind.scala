package repro.connectivity

/** Array union–find with path halving and union by size — the local
  * stand-in for ConnectIt's UniteRemCAS used by the paper for parallel
  * sketch connectivity. Sketch construction gives each task one instance
  * per sketch of its block and [[reset]]s them between blocks (each
  * instance is used sequentially), so no CAS is needed here.
  */
final class UnionFind(n: Int) {
  private val parent = new Array[Int](n)
  private val size = new Array[Int](n)
  reset()

  /** Back to n singletons, reusing the arrays. */
  def reset(): Unit = {
    var v = 0
    while (v < n) { parent(v) = v; v += 1 }
    java.util.Arrays.fill(size, 1)
  }

  def find(x0: Int): Int = {
    var x = x0
    while (parent(x) != x) {
      parent(x) = parent(parent(x)) // path halving
      x = parent(x)
    }
    x
  }

  /** Union the components of a and b; returns true if they were distinct. */
  def union(a: Int, b: Int): Boolean = {
    var ra = find(a); var rb = find(b)
    if (ra == rb) return false
    if (size(ra) < size(rb)) { val t = ra; ra = rb; rb = t }
    parent(rb) = ra
    size(ra) += size(rb)
    true
  }

  /** Canonical label per vertex: the minimum vertex id in its component. */
  def labels: Array[Int] = {
    val out = new Array[Int](n)
    labelsInto(out, new Array[Int](n))
    out
  }

  /** [[labels]] written into `out`, with `firstOf` (n ints, any content)
    * as scratch.
    */
  def labelsInto(out: Array[Int], firstOf: Array[Int]): Unit = {
    // Scanning v upward, the first vertex seen with root r is the minimum
    // of r's component; firstOf(r) holds it plus one (0 = not seen yet).
    java.util.Arrays.fill(firstOf, 0, n, 0)
    var v = 0
    while (v < n) {
      val r = find(v)
      if (firstOf(r) == 0) firstOf(r) = v + 1
      out(v) = firstOf(r) - 1
      v += 1
    }
  }
}
