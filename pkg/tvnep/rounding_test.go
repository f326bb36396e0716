package tvnep_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"tvnep/pkg/tvnep"
)

// TestRoundingFacade exercises WithAlgorithm(Rounding) end to end: the
// result must carry the tier's statistics, a solution whose objective
// respects the LP bound, and an always-on feasibility check (verify runs
// inside Solve); with WithCertify the full certificate must pass too.
func TestRoundingFacade(t *testing.T) {
	sc := scenario(t, 6, 9)
	solver, err := tvnep.New(sc.Substrate,
		tvnep.WithAlgorithm(tvnep.Rounding),
		tvnep.WithSeed(21),
		tvnep.WithCertify(),
		tvnep.WithHorizon(sc.Horizon),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Rounding == nil {
		t.Fatal("Result.Rounding is nil on a rounding solve")
	}
	if res.Rounding.LPBound < res.Solution.Objective-1e-6 {
		t.Fatalf("objective %v exceeds LP bound %v", res.Solution.Objective, res.Rounding.LPBound)
	}
	if res.Certificate == nil || res.Certificate.Solution == nil || !res.Certificate.Solution.OK() {
		t.Fatalf("rounding result did not certify: %+v", res.Certificate)
	}
	if res.Rounding.FellBack {
		t.Fatalf("facade scenario unexpectedly fell back: %+v", res.Rounding)
	}
}

// TestRoundingFacadeDeterministicSeed runs the same rounding solve twice
// per seed: equal seeds must reproduce the objective bit for bit, and the
// two configured seeds must both yield valid (not necessarily equal)
// results.
func TestRoundingFacadeDeterministicSeed(t *testing.T) {
	sc := scenario(t, 6, 9)
	solveWith := func(seed int64) float64 {
		solver, err := tvnep.New(sc.Substrate,
			tvnep.WithAlgorithm(tvnep.Rounding),
			tvnep.WithSeed(seed),
			tvnep.WithHorizon(sc.Horizon),
		)
		if err != nil {
			t.Fatalf("New(seed=%d): %v", seed, err)
		}
		res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
		if err != nil {
			t.Fatalf("Solve(seed=%d): %v", seed, err)
		}
		return res.Solution.Objective
	}
	for _, seed := range []int64{3, 77} {
		first, second := solveWith(seed), solveWith(seed)
		if math.Float64bits(first) != math.Float64bits(second) {
			t.Fatalf("seed %d: objectives %v and %v differ between runs", seed, first, second)
		}
	}
}

// TestRoundingOptionConflicts pins the typed-error contract of the
// rounding algorithm: it requires the cΣ formulation, and it takes every
// cut mode (under lazy it relaxes the static-cut model, since a bare LP
// relaxation never separates cuts; TestOptionsCompose checks the answers).
func TestRoundingOptionConflicts(t *testing.T) {
	sub := tvnep.Grid(2, 2, 1, 1)
	cases := []struct {
		name string
		opts []tvnep.Option
		want string
	}{
		{"rounding-delta", []tvnep.Option{
			tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithFormulation(tvnep.Delta),
		}, "WithAlgorithm(rounding)"},
		{"rounding-sigma", []tvnep.Option{
			tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithFormulation(tvnep.Sigma),
		}, "WithAlgorithm(rounding)"},
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
			if !strings.Contains(err.Error(), "tvnep:") {
				t.Errorf("error %q lost its package prefix", err)
			}
		})
	}
	// Rounding with every cut mode must construct.
	for _, m := range []tvnep.CutMode{tvnep.CutStatic, tvnep.CutLazy, tvnep.CutOff} {
		if _, err := tvnep.New(sub, tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithCutMode(m)); err != nil {
			t.Fatalf("cut mode %v refused: %v", m, err)
		}
	}
}
