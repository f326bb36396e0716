package admit

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// refGreedy is the paper's per-iteration loop of cΣ_A^G, kept as the
// reference Greedy is held to. Requests go in order of earliest start; each
// iteration builds a fresh cΣ over the requests accepted so far, their
// schedules pinned and their flows free, plus the current request, and
// solves it under objective (21). An acceptance commits the current
// request's schedule and every flow of the solve.
func refGreedy(t *testing.T, inst *core.Instance, mapping vnet.NodeMapping) *solution.Solution {
	t.Helper()
	k := len(inst.Reqs)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(inst.Reqs[a].Earliest, inst.Reqs[b].Earliest)
	})
	sol := &solution.Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
		Hosts:    make([][]int, k),
		Flows:    make([][][]float64, k),
	}
	var accepted []int
	for _, cur := range order {
		var reqs []*vnet.Request
		var subMap vnet.NodeMapping
		var force []bool
		for _, a := range accepted {
			pin := *inst.Reqs[a]
			pin.Earliest, pin.Latest = sol.Start[a], sol.End[a]
			reqs = append(reqs, &pin)
			subMap = append(subMap, mapping[a])
			force = append(force, true)
		}
		n := len(accepted)
		reqs = append(reqs, inst.Reqs[cur])
		subMap = append(subMap, mapping[cur])
		force = append(force, false)
		b := core.BuildCSigma(&core.Instance{Sub: inst.Sub, Reqs: reqs, Horizon: inst.Horizon},
			core.BuildOptions{Objective: core.AccessControl, FixedMapping: subMap, ForceAccept: force})
		T := inst.Horizon
		b.Model.SetObjective(model.Expr().Add(T, b.XR[n]).Add(-1, b.TMinus[n]).AddConst(T))
		sub, ms := b.Solve(context.Background(), &model.SolveOptions{NodeLimit: DefaultNodeLimit})
		if ms.Status != model.StatusOptimal && ms.Status != model.StatusInfeasible {
			t.Fatalf("reference iteration for request %d: status %v", cur, ms.Status)
		}
		if sub == nil || !sub.Accepted[n] {
			sol.Start[cur] = inst.Reqs[cur].Earliest
			sol.End[cur] = inst.Reqs[cur].EarliestEnd()
			continue
		}
		for i, a := range accepted {
			sol.Flows[a] = sub.Flows[i]
		}
		accepted = append(accepted, cur)
		sol.Accepted[cur] = true
		sol.Start[cur], sol.End[cur] = sub.Start[n], sub.End[n]
		sol.Hosts[cur], sol.Flows[cur] = sub.Hosts[n], sub.Flows[n]
		sol.Objective += inst.Reqs[cur].Duration * inst.Reqs[cur].TotalNodeDemand()
	}
	return sol
}

// sameSchedule reports the first request on which two solutions disagree
// in verdict or, for an acceptance, in start time beyond TimeTol.
func sameSchedule(got, want *solution.Solution) error {
	for r := range want.Accepted {
		if got.Accepted[r] != want.Accepted[r] {
			return fmt.Errorf("request %d: accepted %v, want %v", r, got.Accepted[r], want.Accepted[r])
		}
		if got.Accepted[r] && math.Abs(got.Start[r]-want.Start[r]) > numtol.TimeTol {
			return fmt.Errorf("request %d: start %v, want %v", r, got.Start[r], want.Start[r])
		}
	}
	return nil
}

// certifyGreedy certifies a Greedy solution whole, under the
// access-control objective it reports.
func certifyGreedy(t *testing.T, inst *core.Instance, mapping vnet.NodeMapping, sol *solution.Solution) {
	t.Helper()
	rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	if err := rep.Err(); err != nil {
		t.Fatalf("greedy solution does not certify: %v", err)
	}
}

// TestGreedyMatchesReference holds Greedy to refGreedy on the 30 cells of
// the default Figure-7 grid (eval.Default: the default preset on a 2×2 grid
// with 5 requests, flex 0–300 min, seeds 1–5): the same verdicts and
// starts, and a solution that certifies.
func TestGreedyMatchesReference(t *testing.T) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 5
	for flex := 0.0; flex <= 300; flex += 60 {
		for seed := int64(1); seed <= 5; seed++ {
			wl.FlexibilityHr = flex / 60
			sc := workload.Generate(wl, seed)
			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			sol, _, err := Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
			if err != nil {
				t.Fatalf("flex %v seed %d: %v", flex, seed, err)
			}
			if err := sameSchedule(sol, refGreedy(t, inst, sc.Mapping)); err != nil {
				t.Errorf("flex %v seed %d: %v", flex, seed, err)
			}
			certifyGreedy(t, inst, sc.Mapping, sol)
		}
	}
}

// TestGreedyReroutesCommittedFlows builds a substrate with two disjoint
// paths, 0→1→3 and 0→2→3, every link of capacity 1, and holds Greedy to
// refGreedy where accepting the last request takes moving committed flows:
//   - move: request 1 runs from host 0 to host 3 and takes the first path;
//     request 2, overlapping it, needs link 0→1 in full. The admission
//     engine keeps request 1's flow and rejects request 2; Greedy moves
//     request 1 to the second path and accepts both.
//   - chain: requests 1 and 2 both run from 0 to 3 and overlap, so they
//     take one path each, and Greedy's second decision puts request 2 on
//     the first path. Request 3 overlaps request 2 only and needs link
//     0→1, so both committed requests swap paths. A subproblem without
//     request 1, which ends before request 3's window, would move request
//     2 onto request 1's path and commit an overload.
//
// Every Greedy solution must accept all requests and certify.
func TestGreedyReroutesCommittedFlows(t *testing.T) {
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	sub := substrate.New(g, 5, 1)
	for _, tc := range []struct {
		name    string
		reqs    []*vnet.Request
		mapping vnet.NodeMapping
		engine  int // requests the admission engine accepts
	}{
		{"move", []*vnet.Request{linkRequest("r1", 1, 0, 4, 4), linkRequest("r2", 1, 1, 2, 3)},
			vnet.NodeMapping{{0, 3}, {0, 1}}, 1},
		{"chain", []*vnet.Request{linkRequest("r1", 1, 0, 2, 2), linkRequest("r2", 1, 1, 3, 4), linkRequest("r3", 1, 3, 2, 5)},
			vnet.NodeMapping{{0, 3}, {0, 3}, {0, 1}}, 3},
	} {
		inst := &core.Instance{Sub: sub, Reqs: tc.reqs, Horizon: 5}
		eng, err := New(Config{Sub: sub, Horizon: inst.Horizon})
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range tc.reqs {
			if _, err := eng.Admit(context.Background(), req, tc.mapping[i]); err != nil {
				t.Fatal(err)
			}
		}
		if s := eng.Stats(); s.Accepted != tc.engine {
			t.Fatalf("%s: the admission engine accepts %d, want %d", tc.name, s.Accepted, tc.engine)
		}

		sol, _, err := Greedy(context.Background(), inst, tc.mapping, core.BuildOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.NumAccepted() != len(tc.reqs) {
			t.Fatalf("%s: greedy accepted %d of %d", tc.name, sol.NumAccepted(), len(tc.reqs))
		}
		if err := sameSchedule(sol, refGreedy(t, inst, tc.mapping)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		certifyGreedy(t, inst, tc.mapping, sol)
	}
}

// TestGreedyRequiresMapping: cΣ_A^G takes node mappings as input.
func TestGreedyRequiresMapping(t *testing.T) {
	inst := &core.Instance{Sub: substrate.Grid(1, 2, 1, 1), Horizon: 1}
	if _, _, err := Greedy(context.Background(), inst, nil, core.BuildOptions{}, nil); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("err = %v, want ErrNoMapping", err)
	}
}

// TestGreedyEmptyInstance: no requests, no decisions, an empty solution
// that claims no optimality.
func TestGreedyEmptyInstance(t *testing.T) {
	inst := &core.Instance{Sub: substrate.Grid(1, 2, 1, 1)}
	sol, stats, err := Greedy(context.Background(), inst, vnet.NodeMapping{}, core.BuildOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != 0 || sol.NumAccepted() != 0 || sol.Optimal || !math.IsInf(sol.Gap, 1) {
		t.Fatalf("empty instance: stats %+v, solution %+v", stats, sol)
	}
}

// tinyWorkload is a contended 2×2-grid workload of n single-leaf stars.
func tinyWorkload(n int) workload.Config {
	return workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: n, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
		FlexibilityHr: 1,
	}
}

// TestGreedyCancelledContext: a cancelled context aborts the run with
// context.Canceled instead of a partial solution.
func TestGreedyCancelledContext(t *testing.T) {
	sc := workload.Generate(tinyWorkload(3), 4)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, _, err := Greedy(ctx, inst, sc.Mapping, core.BuildOptions{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Fatal("cancelled run returned a solution")
	}
}

// TestGreedyStatsPopulated: one decision per request, with the solver work
// and the verdicts counted.
func TestGreedyStatsPopulated(t *testing.T) {
	sc := workload.Generate(tinyWorkload(3), 4)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	sol, stats, err := Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Decisions != 3 || stats.Accepted != sol.NumAccepted() || stats.Accepted+stats.Rejected != 3 {
		t.Fatalf("stats %+v for %d accepted of 3", stats, sol.NumAccepted())
	}
	if stats.LPIterations <= 0 || stats.LatencyP50 <= 0 || sol.Runtime <= 0 {
		t.Fatalf("solver work or timings not recorded: %+v, runtime %v", stats, sol.Runtime)
	}
}

// TestGreedyClaimsNoOptimality pins the solution's solver metadata: the
// decisions optimize objective (21), not access control, and greedy proves
// no bound, so the result claims no optimality.
func TestGreedyClaimsNoOptimality(t *testing.T) {
	for _, cm := range []core.CutMode{core.CutStatic, core.CutLazy} {
		for seed := int64(1); seed <= 4; seed++ {
			sc := workload.Generate(tinyWorkload(5), seed)
			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			sol, _, err := Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{CutMode: cm}, nil)
			if err != nil {
				t.Fatalf("cutmode %v seed %d: %v", cm, seed, err)
			}
			if sol.Optimal || !math.IsInf(sol.Gap, 1) || !math.IsInf(sol.Bound, 1) {
				t.Errorf("cutmode %v seed %d: Optimal=%v Gap=%v Bound=%v, want false +Inf +Inf",
					cm, seed, sol.Optimal, sol.Gap, sol.Bound)
			}
		}
	}
}

// TestGreedyNeverBeatsOptimal: greedy is a heuristic, so its certified
// objective never exceeds the cΣ optimum.
func TestGreedyNeverBeatsOptimal(t *testing.T) {
	cfg := tinyWorkload(4)
	cfg.DemandHigh = 1.5
	for seed := int64(1); seed <= 5; seed++ {
		sc := workload.Generate(cfg, seed)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		gsol, _, err := Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		certifyGreedy(t, inst, sc.Mapping, gsol)
		b := core.BuildCSigma(inst, core.BuildOptions{Objective: core.AccessControl, FixedMapping: sc.Mapping})
		osol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
		if ms.Status != model.StatusOptimal {
			t.Fatalf("seed %d: optimal solve status %v", seed, ms.Status)
		}
		if gsol.Objective > osol.Objective+1e-5 {
			t.Fatalf("seed %d: greedy %v beats optimum %v", seed, gsol.Objective, osol.Objective)
		}
	}
}

// TestGreedyExploitsFlexibility: the same contended workload admits more
// requests somewhere when every window gains 4 h of slack (the paper's
// central claim, greedy flavour).
func TestGreedyExploitsFlexibility(t *testing.T) {
	base := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 5, StarLeaves: 1,
		DemandLow: 1, DemandHigh: 1.5,
		MeanInterArr: 0.5, WeibullShape: 2, WeibullScale: 3,
	}
	for seed := int64(1); seed <= 6; seed++ {
		var accepted [2]int
		for i, flex := range []float64{0, 4} {
			cfg := base
			cfg.FlexibilityHr = flex
			sc := workload.Generate(cfg, seed)
			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			sol, _, err := Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
			if err != nil {
				t.Fatalf("seed %d flex %v: %v", seed, flex, err)
			}
			certifyGreedy(t, inst, sc.Mapping, sol)
			accepted[i] = sol.NumAccepted()
		}
		if accepted[1] > accepted[0] {
			return
		}
	}
	t.Fatal("4h of flexibility never increased greedy admissions across 6 seeds")
}

// greedyOnOneHost runs Greedy with build options opt over jobs that all
// map to host 0 of a 1×2 grid of capacity 1, and certifies the result.
func greedyOnOneHost(t *testing.T, jobs []*vnet.Request, horizon float64, opt core.BuildOptions) (*solution.Solution, Stats) {
	t.Helper()
	inst := &core.Instance{Sub: substrate.Grid(1, 2, 1, 1), Reqs: jobs, Horizon: horizon}
	mapping := make(vnet.NodeMapping, len(jobs))
	for i := range mapping {
		mapping[i] = []int{0}
	}
	sol, stats, err := Greedy(context.Background(), inst, mapping, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	certifyGreedy(t, inst, mapping, sol)
	return sol, stats
}

// job is a one-node request of demand 1.
func job(earliest, duration, latest float64) *vnet.Request {
	return nodesRequest([]float64{1}, earliest, duration, latest)
}

// TestGreedyAcceptsSequentialPair: two 2 h jobs in a 4 h window run back to
// back.
func TestGreedyAcceptsSequentialPair(t *testing.T) {
	sol, stats := greedyOnOneHost(t, []*vnet.Request{job(0, 2, 4), job(0, 2, 4)}, 4, core.BuildOptions{})
	if sol.NumAccepted() != 2 || stats.Decisions != 2 || stats.Accepted != 2 {
		t.Fatalf("accepted %d, stats %+v; want both", sol.NumAccepted(), stats)
	}
}

// TestGreedyRejectsWhenForced: two 2 h jobs in one 2 h window overlap, so
// one is rejected.
func TestGreedyRejectsWhenForced(t *testing.T) {
	sol, _ := greedyOnOneHost(t, []*vnet.Request{job(0, 2, 2), job(0, 2, 2)}, 2, core.BuildOptions{})
	if sol.NumAccepted() != 1 {
		t.Fatalf("accepted %d, want 1 (overlap forced)", sol.NumAccepted())
	}
}

// TestGreedyStartsEarly: objective (21) prefers early completion, so a lone
// flexible job starts at its earliest time.
func TestGreedyStartsEarly(t *testing.T) {
	sol, _ := greedyOnOneHost(t, []*vnet.Request{job(1, 2, 10)}, 10, core.BuildOptions{})
	if math.Abs(sol.Start[0]-1) > numtol.TimeTol {
		t.Fatalf("start %v, want 1", sol.Start[0])
	}
}

// TestGreedyAblationVariantsAgreeOnTiny: cuts and presolve change solve
// speed only, so three 2 h jobs in 6 h all fit under every ablation.
func TestGreedyAblationVariantsAgreeOnTiny(t *testing.T) {
	jobs := []*vnet.Request{job(0, 2, 6), job(0, 2, 6), job(0, 2, 6)}
	for _, opt := range []core.BuildOptions{
		{},
		{CutMode: core.CutOff},
		{DisablePresolve: true},
		{CutMode: core.CutOff, DisablePresolve: true},
	} {
		if sol, _ := greedyOnOneHost(t, jobs, 6, opt); sol.NumAccepted() != 3 {
			t.Fatalf("%+v: accepted %d, want 3 (three 2h jobs fit in 6h)", opt, sol.NumAccepted())
		}
	}
}
