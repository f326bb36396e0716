// Package vnet defines virtual network requests: a topology with node and
// link resource demands (Table II) plus the temporal parameters of Table VI
// (duration, earliest start, latest end).
package vnet

import (
	"fmt"
	"math"

	"tvnep/internal/graph"
	"tvnep/internal/numtol"
)

// Request is one VNet request R ∈ 𝓡.
type Request struct {
	Name string
	G    *graph.Digraph

	NodeDemand []float64 // c_R on virtual nodes
	LinkDemand []float64 // c_R on virtual links (by edge index of G)

	// Temporal parameters (Table VI).
	Duration float64 // d_R > 0
	Earliest float64 // t^s_R: earliest possible start
	Latest   float64 // t^e_R: latest possible end
}

// Flexibility returns the scheduling slack t^e − t^s − d (how much the start
// may be shifted). Zero means the request has a forced schedule.
func (r *Request) Flexibility() float64 { return r.Latest - r.Earliest - r.Duration }

// LatestStart returns t^e − d, the latest feasible start time.
func (r *Request) LatestStart() float64 { return r.Latest - r.Duration }

// EarliestEnd returns t^s + d, the earliest feasible end time.
func (r *Request) EarliestEnd() float64 { return r.Earliest + r.Duration }

// TotalNodeDemand returns Σ_{N_v ∈ V_R} c_R(N_v) (used by the access-control
// revenue objective).
func (r *Request) TotalNodeDemand() float64 {
	s := 0.0
	for _, d := range r.NodeDemand {
		s += d
	}
	return s
}

// Validate checks structural and temporal invariants: demands are
// nonnegative and finite, the duration positive and finite, and the window
// finite, starting at or after zero and no shorter than the duration.
func (r *Request) Validate() error {
	if len(r.NodeDemand) != r.G.N {
		return fmt.Errorf("vnet %s: %d node demands for %d nodes", r.Name, len(r.NodeDemand), r.G.N)
	}
	if len(r.LinkDemand) != r.G.NumEdges() {
		return fmt.Errorf("vnet %s: %d link demands for %d links", r.Name, len(r.LinkDemand), r.G.NumEdges())
	}
	for k, ds := range [2][]float64{r.NodeDemand, r.LinkDemand} {
		for i, d := range ds {
			if !(d >= 0) || math.IsInf(d, 1) { // also rejects NaN
				return fmt.Errorf("vnet %s: %s %d has invalid demand %v", r.Name, [2]string{"node", "link"}[k], i, d)
			}
		}
	}
	if !(r.Duration > 0) || !(r.Earliest >= 0) || math.IsNaN(r.Latest) || math.IsInf(r.Duration+r.Earliest+r.Latest, 0) {
		return fmt.Errorf("vnet %s: duration %v, earliest start %v, latest end %v: want finite times, duration > 0, earliest ≥ 0",
			r.Name, r.Duration, r.Earliest, r.Latest)
	}
	if r.Flexibility() < -numtol.WindowTol { // tolerate float rounding in t^s + d + flex
		return fmt.Errorf("vnet %s: window [%v,%v] shorter than duration %v",
			r.Name, r.Earliest, r.Latest, r.Duration)
	}
	return nil
}

// Star builds the paper's request topology: a star with one center and the
// given number of leaves; inward selects edge orientation. All nodes share
// nodeDemand and all links linkDemand.
func Star(name string, leaves int, inward bool, nodeDemand, linkDemand float64) *Request {
	g := graph.Star(leaves, inward)
	r := &Request{
		Name:       name,
		G:          g,
		NodeDemand: make([]float64, g.N),
		LinkDemand: make([]float64, g.NumEdges()),
	}
	for i := range r.NodeDemand {
		r.NodeDemand[i] = nodeDemand
	}
	for i := range r.LinkDemand {
		r.LinkDemand[i] = linkDemand
	}
	return r
}

// Chain builds a directed-path request 0→1→…→(n−1), the pipeline topology
// of staged applications.
func Chain(name string, nodes int, nodeDemand, linkDemand float64) *Request {
	g := graph.Chain(nodes)
	r := &Request{
		Name:       name,
		G:          g,
		NodeDemand: make([]float64, g.N),
		LinkDemand: make([]float64, g.NumEdges()),
	}
	for i := range r.NodeDemand {
		r.NodeDemand[i] = nodeDemand
	}
	for i := range r.LinkDemand {
		r.LinkDemand[i] = linkDemand
	}
	return r
}

// Clique builds a fully meshed request on the given number of nodes (every
// ordered pair connected), the all-to-all traffic pattern of SecondNet-style
// graph VNets.
func Clique(name string, nodes int, nodeDemand, linkDemand float64) *Request {
	g := graph.NewDigraph(nodes)
	for u := 0; u < nodes; u++ {
		for v := 0; v < nodes; v++ {
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	r := &Request{
		Name:       name,
		G:          g,
		NodeDemand: make([]float64, g.N),
		LinkDemand: make([]float64, g.NumEdges()),
	}
	for i := range r.NodeDemand {
		r.NodeDemand[i] = nodeDemand
	}
	for i := range r.LinkDemand {
		r.LinkDemand[i] = linkDemand
	}
	return r
}

// NodeMapping fixes virtual node → substrate node placement for a request
// set, as done in the paper's evaluation (Section VI-A fixes node mappings
// a priori and lets the model choose link embeddings and schedules).
// NodeMapping[r][v] is the substrate node hosting virtual node v of
// request r.
type NodeMapping [][]int
