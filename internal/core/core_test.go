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

// singleNodeReq builds a request with one virtual node and no links.
func singleNodeReq(name string, demand, earliest, duration, latest float64) *vnet.Request {
	return &vnet.Request{
		Name:       name,
		G:          graph.NewDigraph(1),
		NodeDemand: []float64{demand},
		LinkDemand: []float64{},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}

// pairInstance: two unit-demand single-node requests both pinned on
// substrate node 0 of a 1×2 grid with node capacity 1 — they can never
// overlap in time.
func pairInstance(flex float64) (*Instance, BuildOptions) {
	sub := substrate.Grid(1, 2, 1, 1)
	reqs := []*vnet.Request{
		singleNodeReq("a", 1, 0, 2, 2+flex),
		singleNodeReq("b", 1, 0, 2, 2+flex),
	}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 2 + flex}
	opts := BuildOptions{
		Objective:    AccessControl,
		FixedMapping: vnet.NodeMapping{{0}, {0}},
	}
	return inst, opts
}

func solveAll(t *testing.T, inst *Instance, opts BuildOptions) map[Formulation]*solution.Solution {
	t.Helper()
	out := map[Formulation]*solution.Solution{}
	for _, f := range []Formulation{Delta, Sigma, CSigma} {
		b := Build(f, inst, opts)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal { // mip.StatusOptimal
			t.Fatalf("%v: status %v", f, ms.Status)
		}
		if sol == nil {
			t.Fatalf("%v: no solution extracted", f)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			t.Fatalf("%v: checker rejected solution: %v", f, err)
		}
		out[f] = sol
	}
	return out
}

func TestNoFlexibilityOnlyOneFits(t *testing.T) {
	inst, opts := pairInstance(0)
	sols := solveAll(t, inst, opts)
	for f, sol := range sols {
		if sol.NumAccepted() != 1 {
			t.Fatalf("%v: accepted %d, want 1 (zero flexibility forces overlap)", f, sol.NumAccepted())
		}
		if math.Abs(sol.Objective-2) > 1e-6 {
			t.Fatalf("%v: objective %v, want 2", f, sol.Objective)
		}
	}
}

func TestFlexibilityAllowsBoth(t *testing.T) {
	inst, opts := pairInstance(2) // window [0,4] for duration-2 requests
	sols := solveAll(t, inst, opts)
	for f, sol := range sols {
		if sol.NumAccepted() != 2 {
			t.Fatalf("%v: accepted %d, want 2 (flexibility permits sequential schedule)", f, sol.NumAccepted())
		}
		if math.Abs(sol.Objective-4) > 1e-6 {
			t.Fatalf("%v: objective %v, want 4", f, sol.Objective)
		}
		// The two runs must be disjoint in time (open intervals).
		aEnd, bEnd := sol.End[0], sol.End[1]
		aSt, bSt := sol.Start[0], sol.Start[1]
		overlap := math.Min(aEnd, bEnd) - math.Max(aSt, bSt)
		if overlap > 1e-6 {
			t.Fatalf("%v: schedules overlap by %v", f, overlap)
		}
	}
}

// twoNodeReq builds a request with two virtual nodes joined by one link.
func twoNodeReq(name string, nodeDemand, linkDemand, earliest, duration, latest float64) *vnet.Request {
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	return &vnet.Request{
		Name:       name,
		G:          g,
		NodeDemand: []float64{nodeDemand, nodeDemand},
		LinkDemand: []float64{linkDemand},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}

func TestLinkCapacityForcesSequencing(t *testing.T) {
	// 1×2 grid, link capacity 1; two requests each needing the full link
	// bandwidth between the two substrate nodes.
	sub := substrate.Grid(1, 2, 2, 1)
	reqs := []*vnet.Request{
		twoNodeReq("a", 1, 1, 0, 2, 4),
		twoNodeReq("b", 1, 1, 0, 2, 4),
	}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 4}
	opts := BuildOptions{
		Objective:    AccessControl,
		FixedMapping: vnet.NodeMapping{{0, 1}, {0, 1}},
	}
	sols := solveAll(t, inst, opts)
	for f, sol := range sols {
		if sol.NumAccepted() != 2 {
			t.Fatalf("%v: accepted %d, want 2", f, sol.NumAccepted())
		}
		overlap := math.Min(sol.End[0], sol.End[1]) - math.Max(sol.Start[0], sol.Start[1])
		if overlap > 1e-6 {
			t.Fatalf("%v: link-contending schedules overlap by %v", f, overlap)
		}
	}
}

func TestFreeNodeMapping(t *testing.T) {
	// Without a fixed mapping the model places nodes itself: two
	// single-node requests with demand 1 on a 1×2 grid with capacity 1 can
	// run simultaneously on different substrate nodes.
	sub := substrate.Grid(1, 2, 1, 1)
	reqs := []*vnet.Request{
		singleNodeReq("a", 1, 0, 2, 2),
		singleNodeReq("b", 1, 0, 2, 2),
	}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 2}
	opts := BuildOptions{Objective: AccessControl} // free mapping
	b := BuildCSigma(inst, opts)
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal {
		t.Fatalf("status %v", ms.Status)
	}
	if sol.NumAccepted() != 2 {
		t.Fatalf("accepted %d, want 2 (free mapping separates hosts)", sol.NumAccepted())
	}
	if sol.Hosts[0][0] == sol.Hosts[1][0] {
		t.Fatalf("both requests on host %d despite capacity", sol.Hosts[0][0])
	}
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		t.Fatal(err)
	}
}

func TestCutsAndPresolveAblation(t *testing.T) {
	// All four cΣ variants must agree on the optimum.
	inst, opts := pairInstance(2)
	want := math.NaN()
	for _, variant := range []struct {
		cuts, presolve bool
	}{{false, false}, {false, true}, {true, false}, {true, true}} {
		o := opts
		if !variant.cuts {
			o.CutMode = CutOff
		}
		o.DisablePresolve = !variant.presolve
		b := BuildCSigma(inst, o)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal {
			t.Fatalf("variant %+v: status %v", variant, ms.Status)
		}
		if math.IsNaN(want) {
			want = sol.Objective
		} else if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("variant %+v: objective %v, others got %v", variant, sol.Objective, want)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			t.Fatalf("variant %+v: %v", variant, err)
		}
	}
}

func TestMaxEarlinessSchedulesEarly(t *testing.T) {
	// One flexible request alone: must start at its earliest time.
	sub := substrate.Grid(1, 2, 1, 1)
	reqs := []*vnet.Request{singleNodeReq("a", 1, 1, 2, 9)}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 9}
	opts := BuildOptions{Objective: MaxEarliness, FixedMapping: vnet.NodeMapping{{0}}}
	for _, f := range []Formulation{Delta, Sigma, CSigma} {
		b := Build(f, inst, opts)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal {
			t.Fatalf("%v: status %v", f, ms.Status)
		}
		if math.Abs(sol.Start[0]-1) > 1e-5 {
			t.Fatalf("%v: start %v, want 1 (earliest)", f, sol.Start[0])
		}
		// Full fee: objective = d = 2.
		if math.Abs(sol.Objective-2) > 1e-5 {
			t.Fatalf("%v: objective %v, want 2", f, sol.Objective)
		}
	}
}

func TestMaxEarlinessConflict(t *testing.T) {
	// Two requests on one node: one must be delayed; the solver should
	// start one at its earliest and shift the other just enough.
	inst, opts := pairInstance(2)
	opts.Objective = MaxEarliness
	sols := solveAll(t, inst, opts)
	for f, sol := range sols {
		starts := []float64{sol.Start[0], sol.Start[1]}
		early := math.Min(starts[0], starts[1])
		late := math.Max(starts[0], starts[1])
		if math.Abs(early-0) > 1e-5 || math.Abs(late-2) > 1e-5 {
			t.Fatalf("%v: starts %v, want {0, 2}", f, starts)
		}
	}
}

func TestBalanceNodeLoad(t *testing.T) {
	// Two single-node requests on a 1×2 grid, free to share node 0 in time
	// sequence; keeping node 1 idle maximizes the count of lightly loaded
	// nodes when f is generous.
	sub := substrate.Grid(1, 2, 1, 1)
	reqs := []*vnet.Request{
		singleNodeReq("a", 1, 0, 2, 6),
		singleNodeReq("b", 1, 0, 2, 6),
	}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 6}
	opts := BuildOptions{
		Objective:    BalanceNodeLoad,
		LoadFraction: 0.5,
		FixedMapping: vnet.NodeMapping{{0}, {0}},
	}
	for _, f := range []Formulation{Sigma, CSigma, Delta} {
		b := Build(f, inst, opts)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal {
			t.Fatalf("%v: status %v", f, ms.Status)
		}
		// Node 0 carries full load (demand 1 = cap): F[0] = 0.
		// Node 1 idle: F[1] = 1 → objective 1.
		if math.Abs(sol.Objective-1) > 1e-6 {
			t.Fatalf("%v: objective %v, want 1", f, sol.Objective)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
	}
}

func TestDisableLinks(t *testing.T) {
	// One two-node request pinned on adjacent hosts: it needs at least one
	// directed path 0→1; all other links can be disabled.
	sub := substrate.Grid(1, 2, 2, 2)
	reqs := []*vnet.Request{twoNodeReq("a", 1, 1, 0, 2, 2)}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 2}
	opts := BuildOptions{
		Objective:    DisableLinks,
		FixedMapping: vnet.NodeMapping{{0, 1}},
	}
	for _, f := range []Formulation{Sigma, CSigma, Delta} {
		b := Build(f, inst, opts)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal {
			t.Fatalf("%v: status %v", f, ms.Status)
		}
		// 2 links total (0→1, 1→0); flow needs 0→1 only → 1 disabled.
		if math.Abs(sol.Objective-1) > 1e-6 {
			t.Fatalf("%v: objective %v, want 1", f, sol.Objective)
		}
	}
}

func TestForceAcceptReject(t *testing.T) {
	inst, _ := pairInstance(0) // only one fits
	opts := BuildOptions{Objective: AccessControl, FixedMapping: vnet.NodeMapping{{0}, {0}},
		ForceAccept: []bool{true, false}}
	b := BuildCSigma(inst, opts)
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal {
		t.Fatalf("status %v", ms.Status)
	}
	if !sol.Accepted[0] {
		t.Fatal("forced-accept request rejected")
	}
}

func TestInfeasibleFixedSet(t *testing.T) {
	// Two always-overlapping requests on one node with fixed set → no
	// feasible schedule.
	inst, _ := pairInstance(0)
	opts := BuildOptions{Objective: MaxEarliness, FixedMapping: vnet.NodeMapping{{0}, {0}}}
	b := BuildCSigma(inst, opts)
	_, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusInfeasible { // mip.StatusInfeasible
		t.Fatalf("status %v, want infeasible", ms.Status)
	}
}

func TestCrossModelEquivalenceRandom(t *testing.T) {
	// Random tiny scenarios: all three formulations must report identical
	// optima, and every extracted solution must pass the independent
	// checker. Two requests keep the (intentionally weak) Δ-Model solvable
	// in test time.
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 2, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2,
		FlexibilityHr: 1.5,
	}
	for seed := int64(1); seed <= 8; seed++ {
		sc := workload.Generate(cfg, seed)
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		opts := BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}
		want := math.NaN()
		for _, f := range []Formulation{CSigma, Sigma, Delta} {
			b := Build(f, inst, opts)
			sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
			if ms.Status != model.StatusOptimal {
				t.Fatalf("seed %d %v: status %v", seed, f, ms.Status)
			}
			if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
				t.Fatalf("seed %d %v: %v", seed, f, err)
			}
			if math.IsNaN(want) {
				want = sol.Objective
			} else if math.Abs(sol.Objective-want) > 1e-5 {
				t.Fatalf("seed %d %v: objective %v, expected %v", seed, f, sol.Objective, want)
			}
		}
	}
}

func TestSigmaCSigmaEquivalenceRandom(t *testing.T) {
	// Larger random scenarios comparing the two strong formulations.
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2,
		FlexibilityHr: 1.5,
	}
	for seed := int64(1); seed <= 4; seed++ {
		sc := workload.Generate(cfg, seed)
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		opts := BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}
		want := math.NaN()
		for _, f := range []Formulation{CSigma, Sigma} {
			b := Build(f, inst, opts)
			sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
			if ms.Status != model.StatusOptimal {
				t.Fatalf("seed %d %v: status %v", seed, f, ms.Status)
			}
			if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
				t.Fatalf("seed %d %v: %v", seed, f, err)
			}
			if math.IsNaN(want) {
				want = sol.Objective
			} else if math.Abs(sol.Objective-want) > 1e-5 {
				t.Fatalf("seed %d %v: objective %v, expected %v", seed, f, sol.Objective, want)
			}
		}
	}
}

func TestRelaxationStrengthOrdering(t *testing.T) {
	// Section III: the Σ relaxation dominates the Δ relaxation, and cΣ is
	// at least as strong as Σ. For maximization: bound(Δ) ≥ bound(Σ) ≥
	// optimum, and similarly for cΣ.
	inst, opts := pairInstance(0)
	relax := func(f Formulation) float64 {
		b := Build(f, inst, opts)
		sol := b.Model.Relax(context.Background())
		if !sol.HasSolution {
			t.Fatalf("%v relaxation not optimal", f)
		}
		return sol.Obj
	}
	dBound := relax(Delta)
	sBound := relax(Sigma)
	if sBound > dBound+1e-6 {
		t.Fatalf("Σ relaxation bound %v exceeds Δ bound %v (Σ should be tighter)", sBound, dBound)
	}
	// Both must upper-bound the true optimum 2.
	if dBound < 2-1e-6 || sBound < 2-1e-6 {
		t.Fatalf("relaxation below optimum: Δ %v, Σ %v", dBound, sBound)
	}
	// The paper's key observation: the Δ relaxation admits nullified
	// allocations and reaches the full fractional revenue 4.
	if dBound < 4-1e-6 {
		t.Logf("Δ relaxation bound %v (paper predicts it can reach 4)", dBound)
	}
}

func TestFormulationAndObjectiveStrings(t *testing.T) {
	if Delta.String() != "Δ" || Sigma.String() != "Σ" || CSigma.String() != "cΣ" {
		t.Fatal("formulation strings wrong")
	}
	if AccessControl.String() != "access-control" || MaxEarliness.String() != "max-earliness" ||
		BalanceNodeLoad.String() != "balance-node-load" || DisableLinks.String() != "disable-links" {
		t.Fatal("objective strings wrong")
	}
	if AccessControl.FixedSet() || !MaxEarliness.FixedSet() {
		t.Fatal("FixedSet wrong")
	}
}

func TestInstanceValidate(t *testing.T) {
	inst, _ := pairInstance(1)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{Sub: inst.Sub, Reqs: inst.Reqs, Horizon: 0}
	if bad.Validate() == nil {
		t.Fatal("zero horizon accepted")
	}
	bad = &Instance{Sub: inst.Sub, Reqs: inst.Reqs, Horizon: 1} // window exceeds horizon
	if bad.Validate() == nil {
		t.Fatal("window beyond horizon accepted")
	}
}
