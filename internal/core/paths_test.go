package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tvnep/internal/depgraph"
	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
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
	// Every priced column must be tagged with a contiguous substrate path;
	// the companion columns it opened follow it untagged.
	for k := 0; k < len(ms.AppliedColumns); k++ {
		c := ms.AppliedColumns[k]
		r, lv, links, ok := PathTagInfo(c)
		if !ok {
			t.Fatalf("priced column %d carries no path tag", k)
		}
		if r < 0 || r >= len(inst.Reqs) || lv != 0 {
			t.Fatalf("priced column %d tagged (%d, %d)", k, r, lv)
		}
		assertContiguousPath(t, inst.Sub.G, links, 0, 3)
		for _, a := range ms.AppliedColumns[k+1 : k+1+c.Cols] {
			if a.Tag != nil {
				t.Fatalf("companion column of priced column %d carries tag %v", k, a.Tag)
			}
		}
		k += c.Cols
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
	// objective: no path column exists, the Farkas round at the root prices
	// none, and the model is infeasible — there is no embedding to report.
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
	if ms.Status != model.StatusInfeasible || ms.HasSolution {
		t.Fatalf("status %v (has solution %v), want infeasible", ms.Status, ms.HasSolution)
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
	// certified optimum across objectives × seeds × flexibilities × cut
	// modes, and every extracted path-mode solution must pass the
	// independent checker. At flexibility 4 the requests span several
	// Maybe states, so priced columns open their state rows across states.
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2,
	}
	seeds := []int64{1, 2, 3, 4}
	flexes := []float64{0, 1.5, 4}
	if testing.Short() {
		seeds = seeds[:2]
		flexes = flexes[1:]
	}
	lim := &model.SolveOptions{TimeLimit: 60 * time.Second}
	companion := 0
	for _, cm := range []CutMode{CutStatic, CutLazy} {
		for _, flex := range flexes {
			for _, seed := range seeds {
				cfg.FlexibilityHr = flex
				sc := workload.Generate(cfg, seed)
				inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
				companion += comparePathArcObjectives(t, inst, sc.Mapping, cm, seed, flex, lim)
			}
		}
		inst, mapping := poolCollisionInstance()
		comparePathArcObjectives(t, inst, mapping, cm, -1, 2, lim) // seed -1: the fixed instance
	}
	if companion == 0 {
		t.Fatal("no priced column opened a state row; the sweep no longer compares companion rows")
	}
	t.Logf("%d companion rows opened", companion)
}

// poolCollisionInstance is a scenario the random sweep does not draw: request
// a routes 2.5 units from host 0 to host 1 over a substrate whose three
// routes 0→1, 0→2→1 and 0→3→1 carry 1 each, so it needs all three paths,
// while request b sits on host 2 alone. A path of a over links where a has
// opened no state row is offered with the convexity coefficient alone, so
// the two priced routes arrive with equal coefficients and the column pool
// must still append both. Both requests fit: the arc optimum accepts them.
func poolCollisionInstance() (*Instance, vnet.NodeMapping) {
	g := graph.NewDigraph(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 1}} {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	req := func(name string, link float64) *vnet.Request {
		rg := graph.NewDigraph(2)
		rg.AddEdge(0, 1)
		return &vnet.Request{Name: name, G: rg, NodeDemand: []float64{0.1, 0.1}, LinkDemand: []float64{link},
			Earliest: 0, Duration: 1, Latest: 3}
	}
	inst := &Instance{Sub: substrate.New(g, 10, 1), Reqs: []*vnet.Request{req("a", 2.5), req("b", 0.1)}, Horizon: 3}
	return inst, vnet.NodeMapping{{0, 1}, {2, 2}}
}

// comparePathArcObjectives runs comparePathArc under AccessControl and,
// on the access-control optimum's accept set, under every fixed-set
// objective, and returns the state rows path mode's priced columns opened.
func comparePathArcObjectives(t *testing.T, inst *Instance, mapping vnet.NodeMapping, cm CutMode, seed int64, flex float64, lim *model.SolveOptions) int {
	t.Helper()
	accepted, companion := comparePathArc(t, inst, BuildOptions{
		Objective:    AccessControl,
		FixedMapping: mapping,
		CutMode:      cm,
	}, seed, flex, lim)
	// Fixed-set objectives need an embeddable request set: reuse the accept
	// set of the access-control optimum.
	var reqs []*vnet.Request
	var subMap vnet.NodeMapping
	for r, ok := range accepted {
		if ok {
			reqs = append(reqs, inst.Reqs[r])
			subMap = append(subMap, mapping[r])
		}
	}
	if len(reqs) == 0 {
		return companion
	}
	sub := &Instance{Sub: inst.Sub, Reqs: reqs, Horizon: inst.Horizon}
	for _, obj := range pathEquivalenceObjectives {
		_, opened := comparePathArc(t, sub, BuildOptions{
			Objective:    obj,
			FixedMapping: subMap,
			CutMode:      cm,
		}, seed, flex, lim)
		companion += opened
	}
	return companion
}

// comparePathArc solves the instance in both flow modes, asserts both close
// to the same certified optimum with checker-clean solutions, and returns
// the arc-mode accept set and the number of state rows path mode's priced
// columns opened.
func comparePathArc(t *testing.T, inst *Instance, opts BuildOptions, seed int64, flex float64, lim *model.SolveOptions) ([]bool, int) {
	t.Helper()
	opts.FlowMode = FlowArc
	asol, ams := BuildCSigma(inst, opts).Solve(context.Background(), lim)
	if ams.Status != model.StatusOptimal || asol == nil {
		t.Fatalf("seed %d flex %v %v %v arc: status %v", seed, flex, opts.CutMode, opts.Objective, ams.Status)
	}
	opts.FlowMode = FlowPath
	psol, pms := BuildCSigma(inst, opts).Solve(context.Background(), lim)
	if pms.Status != model.StatusOptimal || psol == nil {
		t.Fatalf("seed %d flex %v %v %v path: status %v", seed, flex, opts.CutMode, opts.Objective, pms.Status)
	}
	if math.Abs(asol.Objective-psol.Objective) > 1e-5*(1+math.Abs(asol.Objective)) {
		t.Fatalf("seed %d flex %v %v %v: arc objective %v, path objective %v",
			seed, flex, opts.CutMode, opts.Objective, asol.Objective, psol.Objective)
	}
	for _, sol := range []*solution.Solution{asol, psol} {
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			t.Fatalf("seed %d flex %v %v %v: checker rejected solution: %v", seed, flex, opts.CutMode, opts.Objective, err)
		}
	}
	return asol.Accepted, pms.Columns.CompanionRows
}

// TestPathRelaxMatchesArcRandom checks the relaxation randomized rounding
// decomposes: on random grid and WAN scenarios, Model.Relax on a FlowPath
// build, its columns priced to convergence, reaches the FlowArc relaxation
// value, and every nontrivial virtual link of a request the relaxation
// takes carries one unit of x_R-normalized flow over src→dst path columns
// (nothing on the convexity artificial). The fixed-set DisableLinks
// objective covers the registry's demand-independent entries.
func TestPathRelaxMatchesArcRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()
	compared, links := 0, 0
	for trial := 0; trial < 48; trial++ {
		wl := workload.Default()
		if trial%2 == 1 {
			wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 8+rng.Intn(5), float64(3+rng.Intn(2))
		} else {
			wl.GridRows, wl.GridCols = 2+rng.Intn(2), 2+rng.Intn(2)
		}
		wl.NumRequests, wl.StarLeaves = 2+rng.Intn(5), 1+rng.Intn(2)
		wl.FlexibilityHr = []float64{0, 1, 2, 4}[rng.Intn(4)]
		sc := workload.Generate(wl, rng.Int63())
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		for _, obj := range []Objective{AccessControl, DisableLinks} {
			opts := BuildOptions{Objective: obj, FixedMapping: sc.Mapping}
			arc := BuildCSigma(inst, opts).Model.Relax(ctx)
			if !arc.HasSolution {
				if obj == AccessControl {
					t.Fatalf("trial %d: arc relaxation %v", trial, arc.Status)
				}
				continue // the fixed set is not even fractionally embeddable
			}
			opts.FlowMode = FlowPath
			b := BuildCSigma(inst, opts)
			rel := b.Model.Relax(ctx)
			if rel.Status != model.StatusOptimal || rel.Nodes != 0 {
				t.Fatalf("trial %d %v: path relaxation %v after %d nodes", trial, obj, rel.Status, rel.Nodes)
			}
			if math.Abs(rel.Obj-arc.Obj) > numtol.ObjTol*(1+math.Abs(arc.Obj)) {
				t.Fatalf("trial %d %v: path relaxation %v, arc relaxation %v", trial, obj, rel.Obj, arc.Obj)
			}
			compared++

			flow := make([][]float64, len(inst.Reqs))
			for r, req := range inst.Reqs {
				flow[r] = make([]float64, req.G.NumEdges())
			}
			b.ForEachPathFlow(rel, func(r, lv int, p []int, v float64) {
				u, w := inst.Reqs[r].G.Edge(lv)
				at := sc.Mapping[r][u]
				for _, ls := range p {
					from, to := inst.Sub.G.Edge(ls)
					if from != at {
						t.Fatalf("trial %d %v: path column %v of request %d link %d is not a walk", trial, obj, p, r, lv)
					}
					at = to
				}
				if at != sc.Mapping[r][w] {
					t.Fatalf("trial %d %v: path column %v of request %d link %d ends at %d, not at host %d", trial, obj, p, r, lv, at, sc.Mapping[r][w])
				}
				flow[r][lv] += v
			})
			for r, req := range inst.Reqs {
				xr := rel.Value(b.XR[r])
				if xr < 1e-3 {
					continue
				}
				for lv := 0; lv < req.G.NumEdges(); lv++ {
					if u, w := req.G.Edge(lv); sc.Mapping[r][u] == sc.Mapping[r][w] {
						continue
					}
					if unit := flow[r][lv] / xr; math.Abs(unit-1) > 1e-6 {
						t.Fatalf("trial %d %v: request %d link %d carries %v units of x_R-normalized flow", trial, obj, r, lv, unit)
					}
					links++
				}
			}
		}
	}
	if compared < 64 || links == 0 {
		t.Fatalf("only %d relaxations compared and %d links decomposed; the sweep lost its coverage", compared, links)
	}
	t.Logf("%d relaxations compared, %d links decomposed", compared, links)
}

// TestPathLinkStateRowsHoldPaths pins the FlowPath row layer on WAN
// scenarios whose requests span several Maybe states: after a solve, every
// link state row (7) — built, or opened by a priced column — holds at least
// one path column, so the build emits no state row that only pads the LP.
func TestPathLinkStateRowsHoldPaths(t *testing.T) {
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves = 5, 1
	built, opened := 0, 0
	for _, flex := range []float64{1, 3} {
		for _, cm := range []CutMode{CutStatic, CutLazy} {
			for seed := int64(1); seed <= 3; seed++ {
				wl.FlexibilityHr = flex
				sc := workload.Generate(wl, seed)
				inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
				b := BuildCSigma(inst, BuildOptions{
					Objective: AccessControl, FixedMapping: sc.Mapping, FlowMode: FlowPath, CutMode: cm,
				})
				_, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
				if ms.Status != model.StatusOptimal {
					t.Fatalf("seed %d flex %v %v: status %v", seed, flex, cm, ms.Status)
				}
				isPath := make(map[int32]bool)
				for _, lams := range b.Lambda {
					for _, lam := range lams {
						for _, v := range lam {
							isPath[int32(v.Index())] = true
						}
					}
				}
				for k := range ms.AppliedColumns {
					isPath[int32(ms.Columns.ColsAtRoot+k)] = true
				}
				holdsPath := func(idx []int32) bool {
					for _, j := range idx {
						if isPath[j] {
							return true
						}
					}
					return false
				}
				numNodes := inst.Sub.NumNodes()
				for i := 0; i < b.Model.NumConstrs(); i++ {
					key := b.Model.RowKey(i)
					if key.Fam != FamState || int(key.K) < numNodes {
						continue
					}
					if idx, _ := b.Model.LP().Row(i); !holdsPath(idx) {
						t.Fatalf("seed %d flex %v %v: built link state row %v holds no path column", seed, flex, cm, key)
					}
					built++
				}
				for k, c := range ms.AppliedColumns {
					for _, row := range c.Rows {
						if !holdsPath(row.Idx) {
							t.Fatalf("seed %d flex %v %v: companion row of priced column %d holds no path column", seed, flex, cm, k)
						}
						opened++
					}
				}
			}
		}
	}
	if opened == 0 {
		t.Fatal("no priced column opened a state row; the scenarios no longer exercise companion rows")
	}
	t.Logf("%d built and %d opened link state rows", built, opened)
}

// TestPathResolveReopensRows solves one FlowPath build twice: the second
// search must start from the build's rows again (the pricer closes what the
// first opened) and repeat the first bit for bit.
func TestPathResolveReopensRows(t *testing.T) {
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 5, 1, 3
	sc := workload.Generate(wl, 2)
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := BuildCSigma(inst, BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping, FlowMode: FlowPath})
	_, first := b.Solve(context.Background(), nil)
	_, again := b.Solve(context.Background(), nil)
	if first.Columns.CompanionRows == 0 {
		t.Fatal("the solve opened no state row; the scenario no longer exercises companion rows")
	}
	if first.Status != again.Status || math.Float64bits(first.Obj) != math.Float64bits(again.Obj) ||
		first.LPIterations != again.LPIterations || first.Columns != again.Columns {
		t.Fatalf("re-solve differs: %v %v %d iters %+v, first %v %v %d iters %+v",
			again.Status, again.Obj, again.LPIterations, again.Columns,
			first.Status, first.Obj, first.LPIterations, first.Columns)
	}
	for k, c := range first.AppliedColumns {
		d := again.AppliedColumns[k]
		if c.Row != d.Row || !reflect.DeepEqual(c.Idx, d.Idx) || !reflect.DeepEqual(c.Rows, d.Rows) {
			t.Fatalf("priced column %d differs on the re-solve", k)
		}
	}
}

// TestPathBuildShape pins what a FlowPath build leaves out on WAN
// scenarios whose requests span several Maybe states. Every continuous
// allocation column of the build — one that sits on a capacity row (9) and
// is no path column — sits in a built state row (7): a deferred state has
// neither. The build has exactly its deferred states' columns fewer than a
// build that creates every state's allocation variable (parentVars, counted
// on such a build), and leaves out every capacity row that nothing built
// loads. After a search, checkCompanions holds for every priced column.
func TestPathBuildShape(t *testing.T) {
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves = 5, 1
	opened, openedCaps := 0, 0
	for _, tc := range []struct {
		seed                 int64
		flex                 float64
		nopresolve           bool
		parentVars, deferred int
	}{
		{1, 1, false, 496, 417},
		{1, 1, true, 896, 789},
		{2, 1, false, 342, 278},
		{3, 1, true, 999, 878},
		{1, 3, false, 1214, 1067},
		{2, 3, true, 1260, 1114},
		{3, 3, false, 1163, 1019},
	} {
		wl.FlexibilityHr = tc.flex
		sc := workload.Generate(wl, tc.seed)
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		b := BuildCSigma(inst, BuildOptions{
			Objective: AccessControl, FixedMapping: sc.Mapping, FlowMode: FlowPath, DisablePresolve: tc.nopresolve,
		})
		name := fmt.Sprintf("seed %d flex %v nopresolve %v", tc.seed, tc.flex, tc.nopresolve)
		deferred := 0
		for _, rows := range b.deferred {
			deferred += len(rows)
		}
		if deferred != tc.deferred || b.Model.NumVars() != tc.parentVars-deferred {
			t.Fatalf("%s: %d columns and %d deferred states, want %d − %d",
				name, b.Model.NumVars(), deferred, tc.parentVars, tc.deferred)
		}
		if len(b.caps) == 0 {
			t.Fatalf("%s: the build left no capacity row out", name)
		}

		p := b.Model.LP()
		isPath := make(map[int32]bool)
		for _, lams := range b.Lambda {
			for _, lam := range lams {
				for _, v := range lam {
					isPath[int32(v.Index())] = true
				}
			}
		}
		inState := make(map[int32]bool)
		for i := 0; i < b.Model.NumConstrs(); i++ {
			if b.Model.RowKey(i).Fam == FamState {
				idx, _ := p.Row(i)
				for _, j := range idx {
					inState[j] = true
				}
			}
		}
		integer := b.Model.IntegerMask()
		allocs := 0
		for i := 0; i < b.Model.NumConstrs(); i++ {
			if b.Model.RowKey(i).Fam != FamCap {
				continue
			}
			idx, _ := p.Row(i)
			for _, j := range idx {
				if integer[j] || isPath[j] {
					continue
				}
				allocs++
				if !inState[j] {
					t.Fatalf("%s: allocation column %d on capacity row %v sits in no state row",
						name, j, b.Model.RowKey(i))
				}
			}
		}
		if allocs == 0 {
			t.Fatalf("%s: no allocation column on any capacity row", name)
		}

		_, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
		if ms.Status != model.StatusOptimal {
			t.Fatalf("%s: status %v", name, ms.Status)
		}
		if ms.Columns.PricedCols+ms.Columns.CompanionCols != len(ms.AppliedColumns) {
			t.Fatalf("%s: %+v over %d applied columns", name, ms.Columns, len(ms.AppliedColumns))
		}
		checkCompanions(t, name, b, ms)
		opened += ms.Columns.CompanionCols
		openedCaps += ms.Columns.CompanionRows - ms.Columns.CompanionCols
	}
	if opened == 0 || openedCaps == 0 {
		t.Fatalf("%d states and %d capacity rows opened; the scenarios no longer exercise both kinds of companion", opened, openedCaps)
	}
}

// checkCompanions checks the companions of every priced column of ms, LP
// column j. Each companion column sits in exactly one companion state row,
// and in one companion capacity row exactly when it has no entry of its
// own. Each companion capacity row — a row of one entry — is a capacity row
// the build left out and this column opened: it names a (state, link) that
// the column's path loads, carrying the column's +d where the request is
// Always active in that state, or +1 on a companion column where it may be.
func checkCompanions(t *testing.T, name string, b *Built, ms *model.Solution) {
	t.Helper()
	capAt := make(map[int]deferredCap)
	for _, dc := range b.caps {
		if dc.row >= 0 {
			capAt[int(dc.row)] = dc
		}
	}
	dg := depgraph.Build(b.Inst.Reqs)
	for k := 0; k < len(ms.AppliedColumns); k++ {
		c := ms.AppliedColumns[k]
		j := int32(ms.Columns.ColsAtRoot + k)
		tag := c.Tag.(pathTag)
		onPath := make(map[int]bool)
		for _, ls := range tag.links {
			onPath[ls] = true
		}
		inState, inCap := make([]int, c.Cols), make([]int, c.Cols)
		for i, row := range c.Rows {
			if len(row.Idx) > 1 {
				n := 0
				for _, jj := range row.Idx {
					if jj > j && jj <= j+int32(c.Cols) {
						inState[jj-j-1]++
						n++
					}
				}
				if n != 1 {
					t.Fatalf("%s: companion state row %d of priced column %d holds %d companion columns", name, i, k, n)
				}
				continue
			}
			dc, ok := capAt[c.Row+i]
			if !ok || !onPath[dc.ls] {
				t.Fatalf("%s: companion capacity row %d of priced column %d (LP row %d) opens no capacity row on its path %v",
					name, i, k, c.Row+i, tag.links)
			}
			act := dg.ActivityAt(tag.r, dc.n)
			if b.Opts.DisablePresolve {
				act = depgraph.Maybe
			}
			jj := row.Idx[0]
			switch {
			case jj == j && act == depgraph.Always:
			case jj > j && jj <= j+int32(c.Cols) && act == depgraph.Maybe:
				inCap[jj-j-1]++
			default:
				t.Fatalf("%s: companion capacity row %d of priced column %d carries column %d; request %d is %v in state %d",
					name, i, k, jj, tag.r, act, dc.n)
			}
		}
		for q := range inState {
			a := ms.AppliedColumns[k+1+q]
			if inState[q] != 1 || inCap[q] != 1-len(a.Idx) {
				t.Fatalf("%s: companion column %d of priced column %d (entries %v) sits in %d state and %d capacity rows",
					name, q, k, a.Idx, inState[q], inCap[q])
			}
		}
		k += c.Cols
	}
}

// emptyRows counts the compiled rows of b with no entry.
func emptyRows(b *Built) int {
	n := 0
	for i := 0; i < b.Model.NumConstrs(); i++ {
		if idx, _ := b.Model.LP().Row(i); len(idx) == 0 {
			n++
		}
	}
	return n
}

// TestPathBuildEmitsNoEmptyRow: no FlowPath build of the offline benchmark's
// scenarios — the 12-PoP WAN cells it solves exactly (seeds 1–12, flex 0–3
// h, lazy cuts) and the paper grid it rounds (flex 0–3 h, static cuts) —
// emits a row without entries. Each WAN cell is then searched twice on its
// one build, as a reused solver does: both searches must agree bit for bit
// and pass checkCompanions, and after the pricer's Reset every capacity row
// the searches opened is closed and the link-use registry is the build's.
func TestPathBuildEmitsNoEmptyRow(t *testing.T) {
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves = 5, 1
	openedCaps := 0
	for seed := int64(1); seed <= 12; seed++ {
		for flex := 0.0; flex <= 3; flex++ {
			wl.FlexibilityHr = flex
			sc := workload.Generate(wl, seed)
			inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			b := BuildCSigma(inst, BuildOptions{
				Objective: AccessControl, FixedMapping: sc.Mapping, FlowMode: FlowPath, CutMode: CutLazy,
			})
			name := fmt.Sprintf("wan seed %d flex %v", seed, flex)
			if n := emptyRows(b); n > 0 {
				t.Fatalf("%s: %d empty rows", name, n)
			}
			built := make([]int, len(b.linkUse))
			for i, use := range b.linkUse {
				built[i] = len(use)
			}
			opts := &model.SolveOptions{NodeLimit: 2000}
			_, first := b.Solve(context.Background(), opts)
			checkCompanions(t, name, b, first)
			_, again := b.Solve(context.Background(), opts)
			if first.Status != again.Status || math.Float64bits(first.Obj) != math.Float64bits(again.Obj) ||
				first.Work != again.Work || first.Columns != again.Columns ||
				!reflect.DeepEqual(first.AppliedColumns, again.AppliedColumns) {
				t.Fatalf("%s: second search differs: %v %v %+v %+v, first %v %v %+v %+v", name,
					again.Status, again.Obj, again.Work, again.Columns, first.Status, first.Obj, first.Work, first.Columns)
			}
			openedCaps += first.Columns.CompanionRows - first.Columns.CompanionCols
			(&pathPricer{b: b}).Reset()
			for i, dc := range b.caps {
				if dc.row >= 0 {
					t.Fatalf("%s: capacity row %d (state %d, link %d) still open at LP row %d after Reset", name, i, dc.n, dc.ls, dc.row)
				}
			}
			for i, use := range b.linkUse {
				if len(use) != built[i] {
					t.Fatalf("%s: link-use list %d holds %d entries after Reset, %d after the build", name, i, len(use), built[i])
				}
			}
		}
	}
	if openedCaps == 0 {
		t.Fatal("no search opened a capacity row; the WAN cells no longer exercise capacity companions")
	}
	for flex := 0.0; flex <= 3; flex++ {
		wl := workload.PaperScale()
		wl.FlexibilityHr = flex
		sc := workload.Generate(wl, 1)
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		b := BuildCSigma(inst, BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping, FlowMode: FlowPath})
		if n := emptyRows(b); n > 0 {
			t.Fatalf("paper grid flex %v: %d empty rows", flex, n)
		}
	}
}
