// Package tvnep's root benchmark harness: one testing.B benchmark per
// evaluation artifact of the paper (Figures 3–9 of Section VI; the paper
// has no numeric result tables — Tables I–XIV are model definitions), plus
// ablation benchmarks for the design choices called out in DESIGN.md §6.
//
// The benchmarks run miniature versions of the sweeps so that
// `go test -bench=. -benchmem` terminates in minutes; `cmd/tvnep-bench`
// regenerates the full figures at configurable scale.
package tvnep

import (
	"context"
	"math"
	"testing"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/eval"
	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// benchConfig is the miniature sweep used by the figure benchmarks.
func benchConfig() eval.Config {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 3
	wl.StarLeaves = 1
	return eval.Config{
		Workload:    wl,
		FlexMinutes: []float64{0, 120},
		Seeds:       []int64{1, 2},
		TimeLimit:   10 * time.Second,
	}
}

// reportSeries flattens figure series into benchmark metrics (median of the
// last flexibility step, which the paper's plots emphasize). Metric units
// must contain no whitespace (testing.B.ReportMetric panics otherwise), so
// labels are slugged.
func reportSeries(b *testing.B, series []eval.Series, metric string) {
	b.Helper()
	for _, s := range series {
		if len(s.Summaries) == 0 {
			continue
		}
		last := s.Summaries[len(s.Summaries)-1]
		if !math.IsNaN(last.Median) {
			b.ReportMetric(last.Median, metric+":"+slug(s.Label))
		}
	}
}

// slug converts a series label into a ReportMetric-safe unit string.
func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == 'Δ':
			out = append(out, 'D')
		case r == 'Σ':
			out = append(out, 'S')
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	return string(out)
}

// BenchmarkFig3Runtime regenerates Figure 3: runtime of the Δ-, Σ- and
// cΣ-Model under access control as flexibility grows.
func BenchmarkFig3Runtime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.Delta, core.Sigma, core.CSigma}, nil)
		if i == 0 {
			reportSeries(b, eval.Figure3(recs, cfg), "median_runtime_s")
		}
	}
}

// BenchmarkFig4Gap regenerates Figure 4: the optimality gap left after the
// time limit, per formulation.
func BenchmarkFig4Gap(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.Delta, core.Sigma, core.CSigma}, nil)
		if i == 0 {
			reportSeries(b, eval.Figure4(recs, cfg), "median_gap_pct")
		}
	}
}

// BenchmarkFig5ObjectivesRuntime regenerates Figure 5: cΣ runtime under the
// three fixed-set objectives.
func BenchmarkFig5ObjectivesRuntime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.ObjectivesSweep(context.Background(), nil)
		if i == 0 {
			reportSeries(b, eval.Figure5(recs, cfg), "median_runtime_s")
		}
	}
}

// BenchmarkFig6ObjectivesGap regenerates Figure 6: cΣ gap under the three
// fixed-set objectives.
func BenchmarkFig6ObjectivesGap(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.ObjectivesSweep(context.Background(), nil)
		if i == 0 {
			reportSeries(b, eval.Figure6(recs, cfg), "median_gap_pct")
		}
	}
}

// BenchmarkFig7GreedyQuality regenerates Figure 7: the relative performance
// of greedy cΣ_A^G versus the exact cΣ-Model.
func BenchmarkFig7GreedyQuality(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.GreedySweep(context.Background(), nil)
		if i == 0 {
			reportSeries(b, eval.Figure7(recs, cfg), "median_gap_pct")
		}
	}
}

// BenchmarkFig8Accepted regenerates Figure 8: requests embedded by the
// cΣ-Model per flexibility step.
func BenchmarkFig8Accepted(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.CSigma}, nil)
		if i == 0 {
			reportSeries(b, eval.Figure8(recs, cfg), "median_accepted")
		}
	}
}

// BenchmarkFig9Improvement regenerates Figure 9: the relative improvement
// of the access-control objective over the rigid (flexibility-0) schedule.
func BenchmarkFig9Improvement(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.CSigma}, nil)
		if i == 0 {
			reportSeries(b, eval.Figure9(recs, cfg), "median_improvement_pct")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---
//
// The bare variant and the single LP-relaxation solve are the
// AblationCSigmaBare and LPRelaxationCSigma entries of `tvnep-bench -json`.

func benchCSigmaVariant(b *testing.B, noCuts, noPresolve bool) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 4
	wl.StarLeaves = 1
	wl.FlexibilityHr = 2
	sc := workload.Generate(wl, 7)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b.ResetTimer()
	cutMode := core.CutStatic
	if noCuts {
		cutMode = core.CutOff
	}
	for i := 0; i < b.N; i++ {
		built := core.BuildCSigma(inst, core.BuildOptions{
			Objective:       core.AccessControl,
			FixedMapping:    sc.Mapping,
			CutMode:         cutMode,
			DisablePresolve: noPresolve,
		})
		sol, ms := built.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
		if sol == nil || ms.Status != model.StatusOptimal {
			b.Fatalf("variant solve failed: %v", ms.Status)
		}
		if i == 0 {
			b.ReportMetric(float64(built.Model.NumVars()), "model_vars")
			b.ReportMetric(float64(built.Model.NumConstrs()), "model_constrs")
			b.ReportMetric(float64(ms.Nodes), "bb_nodes")
		}
	}
}

// BenchmarkAblationCSigmaFull is the full cΣ-Model (cuts + presolve).
func BenchmarkAblationCSigmaFull(b *testing.B) { benchCSigmaVariant(b, false, false) }

// BenchmarkAblationCSigmaNoCuts disables the temporal dependency graph cuts
// (Constraints 19/20).
func BenchmarkAblationCSigmaNoCuts(b *testing.B) { benchCSigmaVariant(b, true, false) }

// BenchmarkAblationCSigmaNoPresolve disables the activity-interval
// state-space reduction.
func BenchmarkAblationCSigmaNoPresolve(b *testing.B) { benchCSigmaVariant(b, false, true) }

// BenchmarkGreedyEndToEnd measures one full cΣ_A^G run on the default
// evaluation scenario (the paper reports ~0.1 s per iteration).
func BenchmarkGreedyEndToEnd(b *testing.B) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 5
	wl.FlexibilityHr = 3
	sc := workload.Generate(wl, 1)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := admit.Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuildCSigma measures pure model construction time (no
// solving): the compactification should keep builds cheap even at the
// paper's scale.
func BenchmarkModelBuildCSigma(b *testing.B) {
	wl := workload.PaperScale()
	wl.FlexibilityHr = 3
	sc := workload.Generate(wl, 1)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built := core.BuildCSigma(inst, core.BuildOptions{
			Objective:    core.AccessControl,
			FixedMapping: sc.Mapping,
		})
		if built.Model.NumVars() == 0 {
			b.Fatal("empty model")
		}
	}
}

// --- Worker-pool scaling benchmarks ---

// benchSweepWorkers runs the cΣ access-control sweep with a fixed worker
// count. Comparing BenchmarkSweepWorkers1 against BenchmarkSweepWorkersCPU
// quantifies the parallel speedup of the evaluation engine; on a machine
// with W ≥ 4 cores the sweep (16 independent scenarios) is expected to run
// ≥ 2× faster with the pool than serially.
func benchSweepWorkers(b *testing.B, workers int) {
	cfg := benchConfig()
	cfg.FlexMinutes = []float64{0, 60, 120, 180}
	cfg.Seeds = []int64{1, 2, 3, 4}
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.CSigma}, nil)
		if len(recs) != len(cfg.FlexMinutes)*len(cfg.Seeds) {
			b.Fatalf("%d records", len(recs))
		}
	}
}

// BenchmarkSweepWorkers1 is the serial baseline.
func BenchmarkSweepWorkers1(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkSweepWorkersCPU uses one worker per CPU (the default).
func BenchmarkSweepWorkersCPU(b *testing.B) { benchSweepWorkers(b, 0) }
