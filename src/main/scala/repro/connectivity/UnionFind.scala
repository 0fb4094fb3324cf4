package repro.connectivity

/** Array union–find with path halving and union by size — the local
  * stand-in for ConnectIt's UniteRemCAS used by the paper for parallel
  * sketch connectivity. Sketch construction runs one instance per sketch
  * (sketches are processed in parallel, each instance sequentially), so
  * no CAS is needed here.
  */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)
  private val size = Array.fill(n)(1)

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
    val minOf = Array.fill(n)(Int.MaxValue)
    var v = 0
    while (v < n) { val r = find(v); if (v < minOf(r)) minOf(r) = v; v += 1 }
    Array.tabulate(n)(v => minOf(find(v)))
  }
}
