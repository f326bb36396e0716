package graph

import "math"

// ShortestHopPath returns a fewest-hops directed path from src to dst as an
// edge sequence. The BFS expands out-edges in index order, so the result is
// deterministic and ties go to the lowest edge index. ok is false when dst
// is unreachable; src == dst yields the empty path.
func (g *Digraph) ShortestHopPath(src, dst int) (path []int, ok bool) {
	parentEdge := make([]int, g.N)
	seen := make([]bool, g.N)
	seen[src] = true
	queue := []int{src}
	for h := 0; h < len(queue) && !seen[dst]; h++ {
		for _, e := range g.out[queue[h]] {
			if _, v := g.Edge(int(e)); !seen[v] {
				seen[v] = true
				parentEdge[v] = int(e)
				queue = append(queue, v)
			}
		}
	}
	if !seen[dst] {
		return nil, false
	}
	return g.tracePath(parentEdge, src, dst), true
}

// ShortestWeightedPath returns the minimum-weight directed path from src to
// dst under nonnegative edge weights w, as an edge sequence. Deterministic
// Dijkstra: the unsettled node with the smallest distance wins, smallest
// index on ties, and edges relax in index order with strict improvement —
// the same weights always yield the same path. ok is false when dst is
// unreachable.
func (g *Digraph) ShortestWeightedPath(src, dst int, w []float64) (path []int, ok bool) {
	dist := make([]float64, g.N)
	parentEdge := make([]int, g.N)
	done := make([]bool, g.N)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for i, d := range dist {
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u == -1 {
			return nil, false
		}
		if u == dst {
			return g.tracePath(parentEdge, src, dst), true
		}
		done[u] = true
		for _, e := range g.out[u] {
			_, v := g.Edge(int(e))
			if nd := dist[u] + w[e]; nd < dist[v] {
				dist[v] = nd
				parentEdge[v] = int(e)
			}
		}
	}
}

// tracePath walks parent edges back from dst and returns the forward edge
// sequence.
func (g *Digraph) tracePath(parentEdge []int, src, dst int) []int {
	var rev []int
	for v := dst; v != src; {
		e := parentEdge[v]
		rev = append(rev, e)
		v, _ = g.Edge(e)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
