package core

import (
	"context"
	"math"
	"testing"
	"time"

	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

func TestFlowModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FlowMode
	}{{"", FlowArc}, {"arc", FlowArc}, {"path", FlowPath}} {
		got, err := ParseFlowMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFlowMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseFlowMode("spanning-tree"); err == nil {
		t.Fatal("ParseFlowMode accepted an unknown mode")
	}
	if FlowArc.String() != "arc" || FlowPath.String() != "path" {
		t.Fatalf("String(): %v / %v", FlowArc, FlowPath)
	}
}

func TestPathModeRequiresFixedMapping(t *testing.T) {
	inst, opts := pairInstance(1)
	opts.FixedMapping = nil
	opts.FlowMode = FlowPath
	defer func() {
		if recover() == nil {
			t.Fatal("FlowPath without a fixed mapping did not panic")
		}
	}()
	BuildCSigma(inst, opts)
}

func TestPathModeRequiresCSigma(t *testing.T) {
	inst, opts := pairInstance(1)
	opts.FlowMode = FlowPath
	for _, f := range []Formulation{Delta, Sigma} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FlowPath under %v did not panic", f)
				}
			}()
			Build(f, inst, opts)
		}()
	}
}

// diamondInstance: two requests each embedding one virtual link from
// substrate node 0 to node 3 over a diamond (0→1→3 and 0→2→3) with unit
// link capacities and overlapping rigid windows. Both seed columns pick the
// same fewest-hops route 0→1→3 (BFS edge-index tie-break), so accepting
// both requests is only possible after the pricer generates the alternate
// route — the minimal instance on which column generation must fire.
func diamondInstance() (*Instance, BuildOptions) {
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1) // e0
	g.AddEdge(1, 3) // e1
	g.AddEdge(0, 2) // e2
	g.AddEdge(2, 3) // e3
	sub := substrate.New(g, 4, 1)
	req := func(name string) *vnet.Request {
		rg := graph.NewDigraph(2)
		rg.AddEdge(0, 1)
		return &vnet.Request{
			Name:       name,
			G:          rg,
			NodeDemand: []float64{0.5, 0.5},
			LinkDemand: []float64{1},
			Earliest:   0,
			Duration:   2,
			Latest:     2,
		}
	}
	inst := &Instance{Sub: sub, Reqs: []*vnet.Request{req("a"), req("b")}, Horizon: 2}
	opts := BuildOptions{
		Objective:    AccessControl,
		FixedMapping: vnet.NodeMapping{{0, 3}, {0, 3}},
		FlowMode:     FlowPath,
	}
	return inst, opts
}

func TestPathPricingGeneratesAlternateRoute(t *testing.T) {
	inst, opts := diamondInstance()
	b := BuildCSigma(inst, opts)
	if b.XE != nil {
		t.Fatal("FlowPath build created arc variables")
	}
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("status %v, sol %v", ms.Status, sol)
	}
	if sol.NumAccepted() != 2 {
		t.Fatalf("accepted %d, want 2 (pricer must open the alternate route)", sol.NumAccepted())
	}
	if ms.Columns.PricedCols == 0 {
		t.Fatal("both requests accepted without pricing a single column — seeds cannot carry both")
	}
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		t.Fatalf("checker rejected path-mode solution: %v", err)
	}
	// Every priced column must be tagged with a contiguous substrate path.
	for k, c := range ms.AppliedColumns {
		r, lv, links, ok := PathTagInfo(c)
		if !ok {
			t.Fatalf("priced column %d carries no path tag", k)
		}
		if r < 0 || r >= len(inst.Reqs) || lv != 0 {
			t.Fatalf("priced column %d tagged (%d, %d)", k, r, lv)
		}
		assertContiguousPath(t, inst.Sub.G, links, 0, 3)
	}
	// Arc mode agrees on the optimum.
	arc := opts
	arc.FlowMode = FlowArc
	asol, ams := BuildCSigma(inst, arc).Solve(context.Background(), nil)
	if ams.Status != model.StatusOptimal {
		t.Fatalf("arc status %v", ams.Status)
	}
	if math.Abs(asol.Objective-sol.Objective) > 1e-6 {
		t.Fatalf("arc objective %v != path objective %v", asol.Objective, sol.Objective)
	}
}

func assertContiguousPath(t *testing.T, g *graph.Digraph, links []int, src, dst int) {
	t.Helper()
	at := src
	for _, e := range links {
		u, v := g.Edge(e)
		if u != at {
			t.Fatalf("path %v: edge %d starts at %d, walker at %d", links, e, u, at)
		}
		at = v
	}
	if at != dst {
		t.Fatalf("path %v ends at %d, want %d", links, at, dst)
	}
}

func TestPathModeUnroutableReturnsNoSolution(t *testing.T) {
	// Substrate with no route between the pinned endpoints under a fixed-set
	// objective: the artificial absorbs the unit flow, which Extract must
	// refuse to report as an embedding.
	g := graph.NewDigraph(2) // two isolated nodes
	sub := substrate.New(g, 4, 1)
	rg := graph.NewDigraph(2)
	rg.AddEdge(0, 1)
	req := &vnet.Request{
		Name: "iso", G: rg,
		NodeDemand: []float64{0.5, 0.5}, LinkDemand: []float64{1},
		Earliest: 0, Duration: 2, Latest: 2,
	}
	inst := &Instance{Sub: sub, Reqs: []*vnet.Request{req}, Horizon: 2}
	opts := BuildOptions{
		Objective:    MaxEarliness, // fixed set: x_R forced to 1
		FixedMapping: vnet.NodeMapping{{0, 1}},
		FlowMode:     FlowPath,
	}
	b := BuildCSigma(inst, opts)
	sol, ms := b.Solve(context.Background(), nil)
	if !ms.HasSolution {
		t.Fatalf("restricted master should stay feasible via the artificial, status %v", ms.Status)
	}
	if sol != nil {
		t.Fatalf("Extract reported an embedding over a disconnected substrate: %+v", sol)
	}
}

// pathEquivalenceObjectives are the objective functions the arc ≡ path
// property test sweeps; AccessControl runs on the raw scenario, the
// fixed-set objectives on its accepted subset.
var pathEquivalenceObjectives = []Objective{
	MaxEarliness, BalanceNodeLoad, DisableLinks, MinMakespan,
}

func TestPathMatchesArcRandom(t *testing.T) {
	// Satellite property test: arc-mode and path-mode cΣ must reach the same
	// certified optimum across objectives × seeds × flexibilities, and every
	// extracted path-mode solution must pass the independent checker.
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2,
	}
	seeds := []int64{1, 2, 3, 4}
	flexes := []float64{0, 1.5}
	if testing.Short() {
		seeds = seeds[:2]
		flexes = flexes[1:]
	}
	lim := &model.SolveOptions{TimeLimit: 60 * time.Second}
	for _, flex := range flexes {
		for _, seed := range seeds {
			cfg.FlexibilityHr = flex
			sc := workload.Generate(cfg, seed)
			inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}

			accepted := comparePathArc(t, inst, BuildOptions{
				Objective:    AccessControl,
				FixedMapping: sc.Mapping,
			}, seed, flex, lim)

			// Fixed-set objectives need an embeddable request set: reuse the
			// accept set of the access-control optimum.
			var reqs []*vnet.Request
			var mapping vnet.NodeMapping
			for r, ok := range accepted {
				if ok {
					reqs = append(reqs, inst.Reqs[r])
					mapping = append(mapping, sc.Mapping[r])
				}
			}
			if len(reqs) == 0 {
				continue
			}
			sub := &Instance{Sub: inst.Sub, Reqs: reqs, Horizon: inst.Horizon}
			for _, obj := range pathEquivalenceObjectives {
				comparePathArc(t, sub, BuildOptions{
					Objective:    obj,
					FixedMapping: mapping,
				}, seed, flex, lim)
			}
		}
	}
}

// comparePathArc solves the instance in both flow modes, asserts both close
// to the same certified optimum with checker-clean solutions, and returns
// the arc-mode accept set.
func comparePathArc(t *testing.T, inst *Instance, opts BuildOptions, seed int64, flex float64, lim *model.SolveOptions) []bool {
	t.Helper()
	opts.FlowMode = FlowArc
	asol, ams := BuildCSigma(inst, opts).Solve(context.Background(), lim)
	if ams.Status != model.StatusOptimal || asol == nil {
		t.Fatalf("seed %d flex %v %v arc: status %v", seed, flex, opts.Objective, ams.Status)
	}
	opts.FlowMode = FlowPath
	psol, pms := BuildCSigma(inst, opts).Solve(context.Background(), lim)
	if pms.Status != model.StatusOptimal || psol == nil {
		t.Fatalf("seed %d flex %v %v path: status %v", seed, flex, opts.Objective, pms.Status)
	}
	if math.Abs(asol.Objective-psol.Objective) > 1e-5*(1+math.Abs(asol.Objective)) {
		t.Fatalf("seed %d flex %v %v: arc objective %v, path objective %v",
			seed, flex, opts.Objective, asol.Objective, psol.Objective)
	}
	for _, sol := range []*solution.Solution{asol, psol} {
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			t.Fatalf("seed %d flex %v %v: checker rejected solution: %v", seed, flex, opts.Objective, err)
		}
	}
	return asol.Accepted
}
