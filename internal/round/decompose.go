package round

import (
	"math"
	"sort"

	"tvnep/internal/core"
	"tvnep/internal/graph"
	"tvnep/internal/model"
)

// startCand is one candidate start time with its χ⁺ probability mass.
type startCand struct {
	t float64
	w float64
}

// pathCand is one substrate path for a virtual link with its flow mass.
type pathCand struct {
	edges []int32
	w     float64
}

// linkCand is the flow decomposition of one virtual link: a convex
// combination of substrate paths whose weights sum to exactly one, plus
// the re-mixed fractional flow it induces (which therefore conserves one
// unit exactly, unlike the raw LP flow divided by a fractional x_R).
type linkCand struct {
	paths []pathCand
	mix   []float64
}

// reqCand is the per-request decomposition of the fractional LP solution:
// an acceptance mass, a probability distribution over candidate start
// times (valid because the start1[r] row sums χ⁺ to exactly one whether or
// not x_R is fractional), and a path decomposition per virtual link.
type reqCand struct {
	xr         float64
	starts     []startCand // ascending time, weights sum to 1
	links      []linkCand
	embeddable bool // flow decomposition succeeded
}

// decompose splits the LP relaxation into per-request rounding candidates.
// Requests whose acceptance mass is below xrFloor keep embeddable=false
// and are never rounded up (their normalized flows would be LP noise).
func decompose(b *core.Built, rel *model.Solution) []reqCand {
	cols := pathColumns(b, rel)
	cands := make([]reqCand, len(b.Inst.Reqs))
	for r := range cands {
		cands[r] = decomposeRequest(b, rel, cols, r)
	}
	return cands
}

// pathColumns lists, per request and virtual link, the path columns that
// carry flow in a FlowPath relaxation, weighted by their flow; nil for an
// arc relaxation.
func pathColumns(b *core.Built, rel *model.Solution) [][][]pathCand {
	if b.XE != nil {
		return nil
	}
	cols := make([][][]pathCand, len(b.Inst.Reqs))
	for r, req := range b.Inst.Reqs {
		cols[r] = make([][]pathCand, req.G.NumEdges())
	}
	b.ForEachPathFlow(rel, func(r, lv int, links []int, v float64) {
		edges := make([]int32, len(links))
		for i, ls := range links {
			edges[i] = int32(ls)
		}
		cols[r][lv] = append(cols[r][lv], pathCand{edges: edges, w: v})
	})
	return cols
}

// decomposeRequest builds the rounding candidate for a single request.
// The paths of a virtual link are the relaxation's own path columns (cols,
// from pathColumns) on a FlowPath build, and are stripped from the arc
// flows otherwise.
func decomposeRequest(b *core.Built, rel *model.Solution, cols [][][]pathCand, r int) reqCand {
	req := b.Inst.Reqs[r]
	c := reqCand{xr: clamp(rel.Value(b.XR[r]), 0, 1)}

	// Temporal-window selection: each χ⁺[r][i] with positive mass nominates
	// the LP value of its event time as a candidate start.
	lo, hi := req.Earliest, math.Max(req.Earliest, req.LatestStart())
	sum := 0.0
	for i := range b.ChiPlus[r] {
		v := b.ChiPlus[r][i]
		if !v.Valid() {
			continue
		}
		w := rel.Value(v)
		if w <= weightCutoff {
			continue
		}
		t := clamp(rel.Value(b.TEvent[i]), lo, hi)
		c.starts = append(c.starts, startCand{t: t, w: w})
		sum += w
	}
	if sum <= weightCutoff {
		c.starts = []startCand{{t: lo, w: 1}}
	} else {
		for i := range c.starts {
			c.starts[i].w /= sum
		}
		sort.SliceStable(c.starts, func(a, b int) bool { return c.starts[a].t < c.starts[b].t })
	}

	// Flow decomposition. Dividing the LP flows by a tiny x_R amplifies
	// the solver's feasibility tolerance into real flow, so requests below
	// the floor are never rounded up at all.
	if c.xr < xrFloor {
		return c
	}
	sub := b.Inst.Sub
	mapping := b.Opts.FixedMapping
	c.links = make([]linkCand, req.G.NumEdges())
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		u, v := req.G.Edge(lv)
		src, dst := mapping[r][u], mapping[r][v]
		if src == dst {
			c.links[lv] = linkCand{mix: make([]float64, sub.NumLinks())}
			continue
		}
		var paths []pathCand
		if cols != nil {
			for _, p := range cols[r][lv] {
				if p.w/c.xr > stripCutoff {
					paths = append(paths, p)
				}
			}
		} else {
			raw := make([]float64, sub.NumLinks())
			for ls := range raw {
				f := rel.Value(b.XE[r][lv][ls]) / c.xr
				if f > 0 {
					raw[ls] = f
				}
			}
			paths = stripPaths(sub.G, raw, src, dst)
		}
		if len(paths) == 0 {
			// The LP flow is too noisy to walk: fall back to a hop-shortest
			// path.
			hop, ok := sub.G.ShortestHopPath(src, dst)
			if !ok {
				return c // substrate cannot connect the pinned hosts
			}
			edges := make([]int32, len(hop))
			for i, e := range hop {
				edges[i] = int32(e)
			}
			paths = []pathCand{{edges: edges, w: 1}}
		}
		// Renormalize so the path weights sum to exactly one; the re-mixed
		// flow then satisfies unit conservation to machine precision
		// regardless of LP noise in the raw flows.
		total := 0.0
		for _, p := range paths {
			total += p.w
		}
		mix := make([]float64, sub.NumLinks())
		for i := range paths {
			paths[i].w /= total
			for _, e := range paths[i].edges {
				mix[e] += paths[i].w
			}
		}
		c.links[lv] = linkCand{paths: paths, mix: mix}
	}
	c.embeddable = true
	return c
}

// stripPaths greedily decomposes a (noisy) src→dst unit flow into simple
// paths: repeatedly walk out of src along the heaviest remaining out-edge
// (ties broken by edge index, so the decomposition is deterministic),
// cancel any cycle met on the walk stack, and subtract the bottleneck of
// each completed path. Every completed walk, cancelled cycle or dead-end
// retreat zeroes at least one edge, so the loop terminates.
func stripPaths(g *graph.Digraph, flow []float64, src, dst int) []pathCand {
	residual := append([]float64(nil), flow...)
	var paths []pathCand
	pos := make([]int, g.N)
	steps, maxSteps := 0, 64*(len(flow)+4)
	for {
		for i := range pos {
			pos[i] = -1
		}
		nodeStack := []int{src}
		edgeStack := []int32{}
		pos[src] = 0
		done := false
		for !done {
			steps++
			if steps > maxSteps {
				return paths
			}
			u := nodeStack[len(nodeStack)-1]
			best, bestF := int32(-1), stripCutoff
			for _, e := range g.Out(u) {
				if residual[e] > bestF {
					best, bestF = e, residual[e]
				}
			}
			if best < 0 {
				if len(edgeStack) == 0 {
					return paths // source dried up
				}
				// Dead end: the edge we arrived by cannot reach dst with
				// the remaining residual, so remove it and back up.
				residual[edgeStack[len(edgeStack)-1]] = 0
				edgeStack = edgeStack[:len(edgeStack)-1]
				pos[u] = -1
				nodeStack = nodeStack[:len(nodeStack)-1]
				continue
			}
			_, v := g.Edge(int(best))
			if p := pos[v]; p >= 0 {
				// Cycle: cancel it so the walk cannot revisit it.
				bn := residual[best]
				for _, e := range edgeStack[p:] {
					if residual[e] < bn {
						bn = residual[e]
					}
				}
				residual[best] -= bn
				if residual[best] <= stripCutoff {
					residual[best] = 0
				}
				for _, e := range edgeStack[p:] {
					residual[e] -= bn
					if residual[e] <= stripCutoff {
						residual[e] = 0
					}
				}
				for _, n := range nodeStack[p+1:] {
					pos[n] = -1
				}
				nodeStack = nodeStack[:p+1]
				edgeStack = edgeStack[:p]
				continue
			}
			edgeStack = append(edgeStack, best)
			pos[v] = len(nodeStack)
			nodeStack = append(nodeStack, v)
			if v == dst {
				bn := math.Inf(1)
				for _, e := range edgeStack {
					if residual[e] < bn {
						bn = residual[e]
					}
				}
				for _, e := range edgeStack {
					residual[e] -= bn
					if residual[e] <= stripCutoff {
						residual[e] = 0
					}
				}
				paths = append(paths, pathCand{edges: append([]int32(nil), edgeStack...), w: bn})
				done = true
			}
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
