package certify

import (
	"context"
	"testing"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// lazySolve builds and solves a generated workload in CutLazy mode. Seed 3
// is pinned because its root LP violates precedence candidates, so the solve
// genuinely appends cuts (see the matching core test).
func lazySolve(t *testing.T) (*core.Built, *model.Solution) {
	t.Helper()
	cfg := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 4, StarLeaves: 1, DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1.5, WeibullShape: 2, WeibullScale: 2, FlexibilityHr: 1.5,
	}
	sc := workload.Generate(cfg, 3)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.AccessControl,
		FixedMapping: sc.Mapping,
		CutMode:      core.CutLazy,
	})
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("lazy solve: status %v", ms.Status)
	}
	if len(ms.AppliedCuts) == 0 {
		t.Fatalf("lazy solve applied no cuts; the pinned seed no longer exercises the certificate")
	}
	if rep := Solution(inst, sol, Options{Objective: core.AccessControl, Mapping: sc.Mapping}); !rep.OK() {
		t.Fatalf("incumbent fails the solution certificate: %v", rep.Err())
	}
	return b, ms
}

func TestCutsCertificateAccepts(t *testing.T) {
	b, ms := lazySolve(t)
	if rep := Cuts(b, ms); !rep.OK() {
		t.Fatalf("cut certificate rejected a clean lazy solve: %v", rep.Err())
	}
}

func TestCutsCertificateTrivialCases(t *testing.T) {
	b, ms := lazySolve(t)
	if rep := Cuts(b, nil); !rep.OK() {
		t.Fatalf("nil solution must pass trivially: %v", rep.Err())
	}
	empty := *ms
	empty.AppliedCuts = nil
	if rep := Cuts(b, &empty); !rep.OK() {
		t.Fatalf("solve without applied cuts must pass trivially: %v", rep.Err())
	}
}

// Mutation tests: each corruption of the applied-cut list must surface as
// exactly the named violation class.
func TestCutsCertificateMutations(t *testing.T) {
	b, ms := lazySolve(t)
	base := ms.AppliedCuts

	mutate := func(cuts []model.Cut) *model.Solution {
		m := *ms
		m.AppliedCuts = cuts
		return &m
	}
	clone := func(c model.Cut) model.Cut {
		c.Idx = append([]int32(nil), c.Idx...)
		c.Val = append([]float64(nil), c.Val...)
		return c
	}

	t.Run("foreign row", func(t *testing.T) {
		c := clone(base[0])
		c.Val[0] *= 2 // no family member scales a χ prefix coefficient
		rep := Cuts(b, mutate(append(append([]model.Cut(nil), base...), c)))
		if !rep.Has(CutUnknown) {
			t.Fatalf("forged row not flagged: %v", rep.Violations)
		}
	})
	t.Run("excludes feasible", func(t *testing.T) {
		// Tighten the bound strictly below the incumbent's activity: the row
		// then cuts off the certified-feasible solution by construction.
		c := clone(base[0])
		x := ms.X()
		act := 0.0
		for k, j := range c.Idx {
			act += c.Val[k] * x[j]
		}
		c.UB = act - 0.5
		rep := Cuts(b, mutate([]model.Cut{c}))
		if !rep.Has(CutExcludesFeasible) {
			t.Fatalf("infeasible-making row not flagged: %v", rep.Violations)
		}
		if !rep.Has(CutUnknown) {
			t.Fatalf("tightened bound should also leave the family: %v", rep.Violations)
		}
	})
	t.Run("column out of range", func(t *testing.T) {
		c := clone(base[0])
		c.Idx[0] = int32(b.Model.NumVars())
		rep := Cuts(b, mutate([]model.Cut{c}))
		if !rep.Has(CutShape) {
			t.Fatalf("out-of-range column not flagged: %v", rep.Violations)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		c := clone(base[0])
		c.Val = c.Val[:len(c.Val)-1]
		rep := Cuts(b, mutate([]model.Cut{c}))
		if !rep.Has(CutShape) {
			t.Fatalf("length mismatch not flagged: %v", rep.Violations)
		}
	})
	t.Run("permuted terms still accepted", func(t *testing.T) {
		c := clone(base[0])
		if len(c.Idx) < 2 {
			t.Skip("row too short to permute")
		}
		last := len(c.Idx) - 1
		c.Idx[0], c.Idx[last] = c.Idx[last], c.Idx[0]
		c.Val[0], c.Val[last] = c.Val[last], c.Val[0]
		rep := Cuts(b, mutate([]model.Cut{c}))
		if !rep.OK() {
			t.Fatalf("canonicalization must accept permuted terms: %v", rep.Err())
		}
	})
	t.Run("wrong bound kind", func(t *testing.T) {
		c := clone(base[0])
		c.LB = 0 // family rows are one-sided ≤ rows
		rep := Cuts(b, mutate([]model.Cut{c}))
		if !rep.Has(CutUnknown) {
			t.Fatalf("two-sided row not flagged: %v", rep.Violations)
		}
	})
}
