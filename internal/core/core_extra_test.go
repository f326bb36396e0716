package core

import (
	"context"
	"math"
	"testing"

	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

func TestModelSizeOrdering(t *testing.T) {
	// Section IV: the compactification halves the state space. On the same
	// instance, the cΣ-Model must have fewer variables and binaries than
	// the Σ-Model, and both fewer constraints than the Δ-Model's big-M
	// avalanche.
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 4
	wl.FlexibilityHr = 2
	sc := workload.Generate(wl, 11)
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	opts := BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}

	cs := BuildCSigma(inst, opts)
	sg := BuildSigma(inst, opts)
	dl := BuildDelta(inst, opts)

	if cs.Model.NumVars() >= sg.Model.NumVars() {
		t.Fatalf("cΣ has %d vars, Σ has %d — compactification should shrink the model",
			cs.Model.NumVars(), sg.Model.NumVars())
	}
	if cs.Model.NumIntVars() >= sg.Model.NumIntVars() {
		t.Fatalf("cΣ has %d binaries, Σ has %d", cs.Model.NumIntVars(), sg.Model.NumIntVars())
	}
	if dl.Model.NumConstrs() <= sg.Model.NumConstrs() {
		t.Fatalf("Δ has %d constraints, Σ has %d — the conditional encoding should dominate",
			dl.Model.NumConstrs(), sg.Model.NumConstrs())
	}
}

func TestPresolveShrinksModel(t *testing.T) {
	// With zero flexibility every request's activity is fully determined:
	// the presolve should eliminate (almost) all state allocation vars.
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 4
	sc := workload.Generate(wl, 3) // zero flexibility
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	opts := BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}
	with := BuildCSigma(inst, opts)
	opts.DisablePresolve = true
	without := BuildCSigma(inst, opts)
	if with.Model.NumVars() >= without.Model.NumVars() {
		t.Fatalf("presolve did not shrink the model: %d vs %d vars",
			with.Model.NumVars(), without.Model.NumVars())
	}
}

func TestRejectedRequestTimesStillValid(t *testing.T) {
	// Definition 2.1 fixes start/end times even for rejected requests; the
	// extracted times must respect window and duration.
	inst, opts := pairInstance(0) // capacity admits only one
	b := BuildCSigma(inst, opts)
	sol, _ := b.Solve(context.Background(), nil)
	if sol.NumAccepted() != 1 {
		t.Fatalf("accepted %d", sol.NumAccepted())
	}
	for r, req := range inst.Reqs {
		if math.Abs((sol.End[r]-sol.Start[r])-req.Duration) > 1e-5 {
			t.Fatalf("request %d (accepted=%v): bad duration", r, sol.Accepted[r])
		}
		if sol.Start[r] < req.Earliest-1e-5 || sol.End[r] > req.Latest+1e-5 {
			t.Fatalf("request %d: times outside window", r)
		}
	}
}

func TestFreeMappingRejectsOversizedRequest(t *testing.T) {
	// A request whose single VM exceeds every node capacity can never be
	// embedded, regardless of placement freedom.
	sub := substrate.Grid(1, 2, 1, 1)
	big := singleNodeReq("big", 5, 0, 1, 4)
	small := singleNodeReq("small", 1, 0, 1, 4)
	inst := &Instance{Sub: sub, Reqs: []*vnet.Request{big, small}, Horizon: 4}
	b := BuildCSigma(inst, BuildOptions{Objective: AccessControl})
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal {
		t.Fatalf("status %v", ms.Status)
	}
	if sol.Accepted[0] {
		t.Fatal("oversized request accepted")
	}
	if !sol.Accepted[1] {
		t.Fatal("fitting request rejected")
	}
}

func TestLoadFractionDefault(t *testing.T) {
	o := BuildOptions{}
	if o.loadFraction() != 0.5 {
		t.Fatalf("default f = %v", o.loadFraction())
	}
	o.LoadFraction = 0.25
	if o.loadFraction() != 0.25 {
		t.Fatalf("explicit f = %v", o.loadFraction())
	}
	o.LoadFraction = 1.5 // nonsense → default
	if o.loadFraction() != 0.5 {
		t.Fatalf("out-of-range f = %v", o.loadFraction())
	}
}

func TestBuildDispatch(t *testing.T) {
	inst, opts := pairInstance(1)
	for _, f := range []Formulation{Delta, Sigma, CSigma} {
		b := Build(f, inst, opts)
		if b.Kind != f {
			t.Fatalf("Build(%v) returned kind %v", f, b.Kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown formulation did not panic")
		}
	}()
	Build(Formulation(42), inst, opts)
}

func TestVariableHandlesExposed(t *testing.T) {
	inst, opts := pairInstance(1)
	b := BuildCSigma(inst, opts)
	if len(b.XR) != 2 || len(b.TPlus) != 2 || len(b.TMinus) != 2 {
		t.Fatal("request-level handles missing")
	}
	if len(b.ChiPlus) != 2 || len(b.ChiMinus) != 2 {
		t.Fatal("event-mapping handles missing")
	}
	if len(b.TEvent) != 4 { // |R|+1 events, 1-based with unused slot 0
		t.Fatalf("TEvent len %d, want 4", len(b.TEvent))
	}
	if !b.XR[0].Valid() || !b.XR[1].Valid() || b.XR[0].Index() == b.XR[1].Index() {
		t.Fatalf("acceptance handles not distinct variables: %d, %d", b.XR[0].Index(), b.XR[1].Index())
	}
}

func TestGapReportedOnTimeout(t *testing.T) {
	// A hard instance with a microscopic time limit must report either a
	// +Inf gap (no incumbent) or a finite positive gap, never "optimal".
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 5
	wl.FlexibilityHr = 4
	sc := workload.Generate(wl, 2)
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := BuildCSigma(inst, BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping})
	_, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 1}) // 1 ns
	if ms.Status == model.StatusOptimal {
		t.Fatal("1 ns budget reported optimal")
	}
	if ms.Gap < 0 {
		t.Fatalf("negative gap %v", ms.Gap)
	}
}

func TestCheckerCatchesCorruptedSolution(t *testing.T) {
	// End-to-end guard: corrupt a valid solution and verify the independent
	// checker notices (i.e. the tests' safety net is alive).
	inst, opts := pairInstance(2)
	b := BuildCSigma(inst, opts)
	sol, _ := b.Solve(context.Background(), nil)
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}
	sol.Start[0] = sol.Start[1] // force full overlap on the shared node
	sol.End[0] = sol.Start[0] + inst.Reqs[0].Duration
	if solution.Check(inst.Sub, inst.Reqs, sol) == nil {
		t.Fatal("checker accepted an overlapping overload")
	}
}

func TestDeltaBalanceObjective(t *testing.T) {
	// The Δ-Model supports BalanceNodeLoad through its accumulated state
	// variables; cross-check against cΣ on a small fixed-set instance.
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
	want := math.NaN()
	for _, f := range []Formulation{CSigma, Delta} {
		b := Build(f, inst, opts)
		sol, ms := b.Solve(context.Background(), nil)
		if ms.Status != model.StatusOptimal {
			t.Fatalf("%v: %v", f, ms.Status)
		}
		if math.IsNaN(want) {
			want = sol.Objective
		} else if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("%v: %v != %v", f, sol.Objective, want)
		}
	}
}
