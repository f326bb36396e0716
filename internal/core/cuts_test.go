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

// precInstance builds a 4-request instance with staggered windows: the two
// forced requests (zero flexibility) are provably ordered, so the
// dependency graph has cross-request precedences and the Constraint-(20)
// family is non-trivial. Node capacity 2 keeps the fixed-set objectives
// feasible.
func precInstance() (*Instance, BuildOptions) {
	sub := substrate.Grid(1, 2, 2, 2)
	reqs := []*vnet.Request{
		singleNodeReq("a", 1, 0, 2, 2), // forced [0,2]
		singleNodeReq("b", 1, 0, 2, 4), // flexible
		singleNodeReq("c", 1, 5, 2, 7), // forced [5,7]: strictly after a
		singleNodeReq("d", 1, 3, 2, 9), // flexible
	}
	inst := &Instance{Sub: sub, Reqs: reqs, Horizon: 9}
	opts := BuildOptions{
		Objective:    AccessControl,
		FixedMapping: vnet.NodeMapping{{0}, {0}, {1}, {1}},
	}
	return inst, opts
}

// TestStaticVsLazyAllObjectives is the acceptance check of the lazy-cut
// pipeline: for every objective, the CutLazy build must reach the same
// certified optimum as CutStatic with strictly fewer root-LP rows, and the
// extracted solution must pass the independent checker.
func TestStaticVsLazyAllObjectives(t *testing.T) {
	inst, base := precInstance()
	for _, obj := range []Objective{AccessControl, MaxEarliness, BalanceNodeLoad, DisableLinks} {
		opts := base
		opts.Objective = obj

		opts.CutMode = CutStatic
		bs := BuildCSigma(inst, opts)
		staticRows := bs.Model.NumConstrs()
		ssol, sms := bs.Solve(context.Background(), nil)
		if sms.Status != model.StatusOptimal {
			t.Fatalf("%v static: status %v", obj, sms.Status)
		}

		opts.CutMode = CutLazy
		bl := BuildCSigma(inst, opts)
		lazyRows := bl.Model.NumConstrs()
		if bl.PrecCutCandidates() == 0 {
			t.Fatalf("%v: no precedence cut candidates; the instance no longer exercises lazy separation", obj)
		}
		if lazyRows >= staticRows {
			t.Fatalf("%v: lazy build has %d root rows, static %d — want strictly fewer", obj, lazyRows, staticRows)
		}
		if got := staticRows - lazyRows; got != bl.PrecCutCandidates() {
			t.Fatalf("%v: row saving %d != candidate count %d", obj, got, bl.PrecCutCandidates())
		}
		lsol, lms := bl.Solve(context.Background(), nil)
		if lms.Status != model.StatusOptimal {
			t.Fatalf("%v lazy: status %v", obj, lms.Status)
		}
		if math.Abs(lsol.Objective-ssol.Objective) > 1e-6*(1+math.Abs(ssol.Objective)) {
			t.Fatalf("%v: lazy objective %v, static %v", obj, lsol.Objective, ssol.Objective)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, lsol); err != nil {
			t.Fatalf("%v lazy: checker rejected solution: %v", obj, err)
		}
		if lms.Cuts.RowsAtRoot != lazyRows {
			t.Fatalf("%v: reported RowsAtRoot %d, model has %d rows", obj, lms.Cuts.RowsAtRoot, lazyRows)
		}
		if lms.Cuts.SeparatedRows != len(lms.AppliedCuts) {
			t.Fatalf("%v: SeparatedRows %d != applied list %d", obj, lms.Cuts.SeparatedRows, len(lms.AppliedCuts))
		}
		if lms.Cuts.SeparatedRows > bl.PrecCutCandidates() {
			t.Fatalf("%v: separated %d rows out of %d candidates", obj, lms.Cuts.SeparatedRows, bl.PrecCutCandidates())
		}
	}
}

// TestCutModeOffMatchesStaticOptimum: dropping Constraint (19)/(20) widens
// the relaxation but must not change the certified integer optimum.
func TestCutModeOffMatchesStaticOptimum(t *testing.T) {
	inst, opts := precInstance()

	static := opts
	static.CutMode = CutStatic
	bStatic := BuildCSigma(inst, static)

	off := opts
	off.CutMode = CutOff
	bOff := BuildCSigma(inst, off)

	sStatic, msStatic := bStatic.Solve(context.Background(), nil)
	sOff, msOff := bOff.Solve(context.Background(), nil)
	if msStatic.Status != model.StatusOptimal || msOff.Status != model.StatusOptimal {
		t.Fatalf("statuses %v / %v", msStatic.Status, msOff.Status)
	}
	if math.Abs(sStatic.Objective-sOff.Objective) > 1e-9 {
		t.Fatalf("objectives differ: %v vs %v", sStatic.Objective, sOff.Objective)
	}
}

// checkAppliedCuts re-checks every row the lazy solve appended against the
// incumbent: an applied cut the certified-optimal solution violates would
// prove the separator (or the pool) unsound.
func checkAppliedCuts(t *testing.T, ms *model.Solution) {
	t.Helper()
	x := ms.X()
	for n, c := range ms.AppliedCuts {
		act := 0.0
		for k, j := range c.Idx {
			act += c.Val[k] * x[j]
		}
		if act > c.UB+1e-6 || act < c.LB-1e-6 {
			t.Fatalf("incumbent violates applied cut %d: activity %v outside [%v, %v]", n, act, c.LB, c.UB)
		}
	}
}

// TestLazySeparatedCutsAreValid checks applied-cut validity on the staggered
// pair instance.
func TestLazySeparatedCutsAreValid(t *testing.T) {
	inst, opts := precInstance()
	opts.CutMode = CutLazy
	b := BuildCSigma(inst, opts)
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("status %v", ms.Status)
	}
	checkAppliedCuts(t, ms)
}

// TestLazySeparationFiresOnWorkload pins generated workloads whose LP
// relaxations actually violate precedence candidates, so the full pipeline —
// separator call, pool selection, incremental row append, warm re-solve —
// runs end to end at the core level, not just in internal/mip unit tests.
// The seeds were chosen by scanning generated workloads for instances with a
// violated candidate at the root; if workload generation changes, rescan.
func TestLazySeparationFiresOnWorkload(t *testing.T) {
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 4, StarLeaves: 1, DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2, FlexibilityHr: 1.5,
	}
	for _, seed := range []int64{3, 4} {
		sc := workload.Generate(cfg, seed)
		inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		opts := BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping}

		opts.CutMode = CutStatic
		bs := BuildCSigma(inst, opts)
		ssol, sms := bs.Solve(context.Background(), nil)
		if sms.Status != model.StatusOptimal {
			t.Fatalf("seed %d static: status %v", seed, sms.Status)
		}

		opts.CutMode = CutLazy
		bl := BuildCSigma(inst, opts)
		lsol, lms := bl.Solve(context.Background(), nil)
		if lms.Status != model.StatusOptimal {
			t.Fatalf("seed %d lazy: status %v", seed, lms.Status)
		}
		if lms.Cuts.SeparatedRows == 0 {
			t.Fatalf("seed %d: no cuts separated — the seed no longer exercises the lazy pipeline", seed)
		}
		if lms.Cuts.Rounds == 0 || lms.Cuts.Offered < lms.Cuts.SeparatedRows {
			t.Fatalf("seed %d: inconsistent stats %+v", seed, lms.Cuts)
		}
		if math.Abs(lsol.Objective-ssol.Objective) > 1e-6*(1+math.Abs(ssol.Objective)) {
			t.Fatalf("seed %d: lazy objective %v, static %v", seed, lsol.Objective, ssol.Objective)
		}
		if err := solution.Check(inst.Sub, inst.Reqs, lsol); err != nil {
			t.Fatalf("seed %d lazy: checker rejected solution: %v", seed, err)
		}
		checkAppliedCuts(t, lms)
	}
}
