package tvnep_test

import (
	"context"
	"testing"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/round"
	"tvnep/pkg/tvnep"
)

// TestResultWorkMatchesLayers pins that each algorithm's Result reports the
// work its layers counted: an exact solve the search's counters, greedy the
// admission engine's totals (bound flips and ratio passes included), and
// rounding its LP iterations and its fallback's nodes.
func TestResultWorkMatchesLayers(t *testing.T) {
	ctx := context.Background()
	const nodeLimit, seed = 2000, 21
	greedyPasses := 0
	for _, scSeed := range []int64{4, 9} {
		sc := scenario(t, 6, scSeed)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		facade := func(opts ...tvnep.Option) tvnep.Work {
			t.Helper()
			s, err := tvnep.New(sc.Substrate, append(opts, tvnep.WithHorizon(sc.Horizon), tvnep.WithNodeLimit(nodeLimit))...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := s.Solve(ctx, sc.Requests, sc.Mapping)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			return res.Work
		}

		b := core.Build(core.CSigma, inst, core.BuildOptions{FixedMapping: sc.Mapping})
		_, ms := b.Solve(ctx, &model.SolveOptions{NodeLimit: nodeLimit})
		if got := facade(); got != ms.Work {
			t.Errorf("scenario %d: exact work %+v, search counted %+v", scSeed, got, ms.Work)
		}

		_, gs, err := admit.Greedy(ctx, inst, sc.Mapping, core.BuildOptions{}, &model.SolveOptions{NodeLimit: nodeLimit})
		if err != nil {
			t.Fatalf("scenario %d: direct greedy: %v", scSeed, err)
		}
		if got := facade(tvnep.WithAlgorithm(tvnep.Greedy)); got != gs.Work {
			t.Errorf("scenario %d: greedy work %+v, engine counted %+v", scSeed, got, gs.Work)
		}
		greedyPasses += gs.RatioPasses

		_, rs, err := round.Solve(ctx, inst, sc.Mapping, round.Options{
			Seed: seed, Objective: core.AccessControl, Solve: model.SolveOptions{NodeLimit: nodeLimit, Seed: seed},
		})
		if err != nil {
			t.Fatalf("scenario %d: direct rounding: %v", scSeed, err)
		}
		want := tvnep.Work{Nodes: rs.FallbackNodes, LPIterations: rs.LPIterations}
		if got := facade(tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithSeed(seed)); got != want {
			t.Errorf("scenario %d: rounding work %+v, tier counted %+v", scSeed, got, want)
		}
	}
	// Bound flips are zero on these models (as on every BENCH_lp.json
	// entry), so the ratio passes witness that greedy carries the ratio
	// test's counters.
	if greedyPasses == 0 {
		t.Fatal("no greedy run reported a ratio pass; the scenarios no longer show that greedy carries them")
	}
}
