package greedy

import (
	"context"
	"math"
	"testing"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

func TestGreedyExploitsFlexibility(t *testing.T) {
	// The same contended workload must admit at least as many requests when
	// every window gains slack (the paper's central claim, greedy flavor).
	base := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 5, StarLeaves: 1,
		DemandLow: 1, DemandHigh: 1.5,
		MeanInterArr: 0.5, WeibullShape: 2, WeibullScale: 3,
	}
	improvedSomewhere := false
	for seed := int64(1); seed <= 6; seed++ {
		var accepted [2]int
		for i, flex := range []float64{0, 4} {
			cfg := base
			cfg.FlexibilityHr = flex
			sc := workload.Generate(cfg, seed)
			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			sol, _, err := Solve(context.Background(), inst, sc.Mapping, core.BuildOptions{}, &model.SolveOptions{TimeLimit: 10 * time.Second})
			if err != nil {
				t.Fatalf("seed %d flex %v: %v", seed, flex, err)
			}
			if err := solution.Check(sc.Substrate, sc.Requests, sol); err != nil {
				t.Fatalf("seed %d flex %v: %v", seed, flex, err)
			}
			accepted[i] = sol.NumAccepted()
		}
		if accepted[1] > accepted[0] {
			improvedSomewhere = true
		}
	}
	if !improvedSomewhere {
		t.Fatal("4h of flexibility never increased greedy admissions across 6 seeds")
	}
}

func TestGreedyStatsPopulated(t *testing.T) {
	wl := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
		FlexibilityHr: 1,
	}
	sc := workload.Generate(wl, 4)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	sol, stats, err := Solve(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 3 {
		t.Fatalf("iterations %d, want 3", stats.Iterations)
	}
	if stats.TotalRuntime <= 0 || stats.MaxIterTime <= 0 {
		t.Fatalf("timings not recorded: %+v", stats)
	}
	if stats.AcceptedCount != sol.NumAccepted() {
		t.Fatalf("stats accepted %d != solution accepted %d", stats.AcceptedCount, sol.NumAccepted())
	}
	if stats.TotalLPIters <= 0 {
		t.Fatalf("LP iterations not counted: %+v", stats)
	}
}

func TestGreedyAblationVariantsAgreeOnTiny(t *testing.T) {
	// Cuts/presolve must not change greedy admissions on deterministic tiny
	// cases (they only change solve speed).
	reqs := []*vnet.Request{
		singleNodeReq("a", 1, 0, 2, 6),
		singleNodeReq("b", 1, 0, 2, 6),
		singleNodeReq("c", 1, 0, 2, 6),
	}
	inst := &core.Instance{Sub: substrate.Grid(1, 2, 1, 1), Reqs: reqs, Horizon: 6}
	mapping := vnet.NodeMapping{{0}, {0}, {0}}
	var want int = -1
	for _, opt := range []core.BuildOptions{
		{},
		{CutMode: core.CutOff},
		{DisablePresolve: true},
		{CutMode: core.CutOff, DisablePresolve: true},
	} {
		sol, _, err := Solve(context.Background(), inst, mapping, opt, nil)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if want == -1 {
			want = sol.NumAccepted()
		} else if sol.NumAccepted() != want {
			t.Fatalf("%+v: accepted %d, others %d", opt, sol.NumAccepted(), want)
		}
	}
	if want != 3 {
		t.Fatalf("accepted %d, want 3 (three 2h jobs fit in 6h)", want)
	}
}

// TestGreedyClaimsNoOptimality pins the greedy solution's solver metadata:
// the per-iteration subproblems optimize objective (21), not access
// control, and greedy proves no bound, so the result must claim no
// optimality and report the run's node and runtime totals.
func TestGreedyClaimsNoOptimality(t *testing.T) {
	wl := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 5, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
		FlexibilityHr: 1,
	}
	for _, cm := range []core.CutMode{core.CutStatic, core.CutLazy} {
		for seed := int64(1); seed <= 4; seed++ {
			sc := workload.Generate(wl, seed)
			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			sol, stats, err := Solve(context.Background(), inst, sc.Mapping, core.BuildOptions{CutMode: cm}, nil)
			if err != nil {
				t.Fatalf("cutmode %v seed %d: %v", cm, seed, err)
			}
			if sol.Optimal || !math.IsInf(sol.Gap, 1) || !math.IsInf(sol.Bound, 1) {
				t.Errorf("cutmode %v seed %d: Optimal=%v Gap=%v Bound=%v, want false +Inf +Inf",
					cm, seed, sol.Optimal, sol.Gap, sol.Bound)
			}
			if sol.Nodes != stats.TotalBBNodes || sol.Runtime != stats.TotalRuntime {
				t.Errorf("cutmode %v seed %d: Nodes=%d Runtime=%v, want run totals %d %v",
					cm, seed, sol.Nodes, sol.Runtime, stats.TotalBBNodes, stats.TotalRuntime)
			}
		}
	}
}
