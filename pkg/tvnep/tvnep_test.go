package tvnep_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

func scenario(t *testing.T, n int, seed int64) *workload.Scenario {
	t.Helper()
	cfg := workload.Default()
	cfg.NumRequests = n
	cfg.FlexibilityHr = 2
	sc := workload.Generate(cfg, seed)
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return sc
}

// TestFacadeMatchesDirect solves the same instance once through the facade
// and once through the internal path and requires byte-identical results on
// all four Section IV-E objectives: the facade must be a pure re-packaging
// of the solve, never a behavioral fork.
func TestFacadeMatchesDirect(t *testing.T) {
	sc := scenario(t, 6, 9)
	// The fixed-set objectives assume every request is embeddable; loosen
	// the capacities so the all-accept system is feasible.
	loose := func() *workload.Scenario {
		cfg := workload.Default()
		cfg.NumRequests = 4
		cfg.FlexibilityHr = 4
		cfg.NodeCap, cfg.LinkCap = 50, 50
		lsc := workload.Generate(cfg, 9)
		if err := lsc.Validate(); err != nil {
			t.Fatalf("loose scenario: %v", err)
		}
		return lsc
	}()
	objectives := []core.Objective{
		core.AccessControl, core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks,
	}
	for _, obj := range objectives {
		obj := obj
		t.Run(obj.String(), func(t *testing.T) {
			sc := sc
			if obj.FixedSet() {
				sc = loose
			}
			// A modest node budget keeps the pathological objectives
			// (DisableLinks explores deep symmetric subtrees) bounded; the
			// equality claim only needs both paths to run the identical
			// search, not to finish it.
			opts := model.SolveOptions{NodeLimit: 2000}

			inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
			b := core.Build(core.CSigma, inst, core.BuildOptions{
				Objective:    obj,
				FixedMapping: sc.Mapping,
			})
			wantSol, wantMS := b.Solve(context.Background(), &opts)
			if wantSol == nil {
				t.Fatalf("direct solve found no solution")
			}

			solver, err := tvnep.New(sc.Substrate,
				tvnep.WithObjective(obj),
				tvnep.WithNodeLimit(2000),
				tvnep.WithHorizon(sc.Horizon),
			)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			got, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}

			if math.Float64bits(got.Solution.Objective) != math.Float64bits(wantSol.Objective) {
				t.Errorf("objective %v != direct %v", got.Solution.Objective, wantSol.Objective)
			}
			if got.Nodes != wantMS.Nodes || got.LPIterations != wantMS.LPIterations {
				t.Errorf("work (%d nodes, %d iters) != direct (%d, %d)",
					got.Nodes, got.LPIterations, wantMS.Nodes, wantMS.LPIterations)
			}
			if got.Status != wantMS.Status {
				t.Errorf("status %v != direct %v", got.Status, wantMS.Status)
			}
			for r := range sc.Requests {
				if got.Solution.Accepted[r] != wantSol.Accepted[r] {
					t.Errorf("request %d: accepted %v != direct %v", r, got.Solution.Accepted[r], wantSol.Accepted[r])
				}
				if math.Float64bits(got.Solution.Start[r]) != math.Float64bits(wantSol.Start[r]) ||
					math.Float64bits(got.Solution.End[r]) != math.Float64bits(wantSol.End[r]) {
					t.Errorf("request %d: schedule [%v,%v] != direct [%v,%v]", r,
						got.Solution.Start[r], got.Solution.End[r], wantSol.Start[r], wantSol.End[r])
				}
			}
		})
	}
}

// TestGreedyFacadeMatchesDirect does the same for the greedy algorithm.
func TestGreedyFacadeMatchesDirect(t *testing.T) {
	sc := scenario(t, 8, 4)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	wantSol, wantStats, err := admit.Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil)
	if err != nil {
		t.Fatalf("direct greedy: %v", err)
	}

	solver, err := tvnep.New(sc.Substrate,
		tvnep.WithAlgorithm(tvnep.Greedy),
		tvnep.WithHorizon(sc.Horizon),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Float64bits(got.Solution.Objective) != math.Float64bits(wantSol.Objective) {
		t.Errorf("objective %v != direct %v", got.Solution.Objective, wantSol.Objective)
	}
	if got.Greedy == nil || got.Greedy.Accepted != wantStats.Accepted {
		t.Errorf("greedy stats %+v != direct %+v", got.Greedy, wantStats)
	}
	if got.Solution.Optimal {
		t.Error("greedy solution claims optimality; greedy proves no bound")
	}
	for r := range sc.Requests {
		if got.Solution.Accepted[r] != wantSol.Accepted[r] {
			t.Errorf("request %d: accepted %v != direct %v", r, got.Solution.Accepted[r], wantSol.Accepted[r])
		}
	}
}

// TestOptionConflict pins the typed-error contract: cΣ-only ablation
// options combined with Δ or Σ fail construction with *OptionConflictError
// naming the offending option (replacing the old stderr warning path).
func TestOptionConflict(t *testing.T) {
	sub := tvnep.Grid(2, 2, 1, 1)
	cases := []struct {
		name string
		opts []tvnep.Option
		want string
	}{
		{"cutmode-delta", []tvnep.Option{tvnep.WithFormulation(tvnep.Delta), tvnep.WithCutMode(tvnep.CutLazy)}, "WithCutMode"},
		{"presolve-sigma", []tvnep.Option{tvnep.WithFormulation(tvnep.Sigma), tvnep.WithoutPresolve()}, "WithoutPresolve"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tvnep.New(sub, tc.opts...)
			var conflict *tvnep.OptionConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("want *OptionConflictError, got %v", err)
			}
			if conflict.Option != tc.want {
				t.Errorf("Option = %q, want %q", conflict.Option, tc.want)
			}
		})
	}
	// The same options are fine on cΣ.
	if _, err := tvnep.New(sub, tvnep.WithCutMode(tvnep.CutLazy), tvnep.WithoutPresolve()); err != nil {
		t.Fatalf("cΣ with cut/presolve options must construct: %v", err)
	}
	// And on Δ/Σ without the cΣ-only options.
	if _, err := tvnep.New(sub, tvnep.WithFormulation(tvnep.Delta)); err != nil {
		t.Fatalf("plain Δ must construct: %v", err)
	}
}

// TestAdmitRequiresHorizon pins the ErrNoHorizon contract.
func TestAdmitRequiresHorizon(t *testing.T) {
	sub := tvnep.Grid(2, 2, 1, 1)
	solver, err := tvnep.New(sub)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	req := tvnep.Star("r", 1, false, 0.5, 0.25)
	req.Duration, req.Earliest, req.Latest = 1, 0, 2
	if _, err := solver.Admit(context.Background(), req, []int{0, 1}); !errors.Is(err, tvnep.ErrNoHorizon) {
		t.Fatalf("want ErrNoHorizon, got %v", err)
	}
}

// TestCancelledSolveKeepsStatistics cancels an exact solve from its first
// progress callback, which comes after the root relaxation: the solve
// returns the context's error beside a Result that carries the search's
// work so far. A context cancelled before the call returns no Result.
func TestCancelledSolveKeepsStatistics(t *testing.T) {
	sc := scenario(t, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solver, err := tvnep.New(sc.Substrate, tvnep.WithHorizon(sc.Horizon),
		tvnep.WithProgress(func(tvnep.Progress) { cancel() }))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := solver.Solve(ctx, sc.Requests, sc.Mapping)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v, want context.Canceled", err)
	}
	if res == nil || res.Status != tvnep.StatusCancelled || res.Solution != nil || res.LPIterations == 0 {
		t.Fatalf("cancelled solve returned %+v, want a cancelled Result with its LP iterations", res)
	}
	t.Logf("cancelled after %d nodes and %d LP iterations", res.Nodes, res.LPIterations)
	if res, err := solver.Solve(ctx, sc.Requests, sc.Mapping); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("solve under a cancelled context returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestCertifiedSolve exercises the WithCertify path end to end.
func TestCertifiedSolve(t *testing.T) {
	sc := scenario(t, 5, 2)
	solver, err := tvnep.New(sc.Substrate,
		tvnep.WithCertify(),
		tvnep.WithCutMode(tvnep.CutLazy),
		tvnep.WithHorizon(sc.Horizon),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Certificate == nil || res.Certificate.Solution == nil || res.Certificate.RootLP == nil {
		t.Fatalf("certificates missing: %+v", res.Certificate)
	}
	if !res.Certificate.Solution.OK() {
		t.Fatalf("solution certificate failed: %v", res.Certificate.Solution.Err())
	}
	if !res.Certificate.RootLP.OK() {
		t.Fatalf("root-LP certificate failed: %v", res.Certificate.RootLP.Err())
	}
}
