package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/round"
	"tvnep/internal/stats"
	"tvnep/internal/workload"
)

// The -json mode: a machine-readable micro-benchmark of the LP solver core,
// mirroring the two guard benchmarks of the test suite
// (BenchmarkLPRelaxationCSigma and BenchmarkAblationCSigmaBare) and
// augmenting them with solver-internal statistics: simplex iterations,
// long-step ratio-test activity, warm-start success rate and factor-handoff
// rate from the lp.Debug* counters, the equilibration-scaling diagnostics
// and a steady-state allocation probe. Pass -compare with a previously
// written report to embed it as the baseline, compute speedups, and fail
// the run when ns/op, allocs/op or bytes/op regresses beyond regressionTol.

// regressionTol is the fractional slack the -compare regression guard
// grants over the baseline before failing the run.
// shortNsSlack is the extra ns/op slack granted in short mode: the capped
// op counts amortize less warm state per op, which reads a systematic
// 13-19% slower than the full-run baseline on an otherwise identical
// build. Allocation counts and bytes get no extra slack.
const (
	regressionTol = 0.10
	shortNsSlack  = 0.20
)

type lpBenchResult struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	LPItersPerOp float64 `json:"lp_iters_per_op"`
	BBNodes      float64 `json:"bb_nodes,omitempty"`
	// Long-step dual ratio-test activity (see lp.Result): nonbasic bound
	// flips absorbed without a pivot, and breakpoints walked per op.
	BoundFlipsPerOp  float64 `json:"bound_flips_per_op,omitempty"`
	RatioPassesPerOp float64 `json:"ratio_passes_per_op,omitempty"`
	// Lazy-separation statistics (LazyCutCSigma only): rows present in the
	// root LP vs rows appended on demand, separation rounds, and pool
	// dedup hits.
	CutRowsRoot      float64 `json:"cut_rows_root,omitempty"`
	CutRowsSeparated float64 `json:"cut_rows_separated,omitempty"`
	CutRounds        float64 `json:"cut_rounds,omitempty"`
	CutPoolHits      float64 `json:"cut_pool_hits,omitempty"`
	// Column-generation statistics (WANCSigmaPath only): structural columns
	// in the root LP, columns appended by pricing, pricing rounds and pool
	// dedup hits — the pricing mirror of the lazy-cut fields above.
	ColsRoot    float64 `json:"cols_root,omitempty"`
	ColsPriced  float64 `json:"cols_priced,omitempty"`
	ColRounds   float64 `json:"col_rounds,omitempty"`
	ColPoolHits float64 `json:"col_pool_hits,omitempty"`
	// Streaming-admission statistics (AdmissionStream only): per-decision
	// latency quantiles and trace-level accept / warm-restart rates.
	// RandomizedRounding reuses the quantile fields for its per-solve
	// latencies.
	P50NS      float64 `json:"p50_ns,omitempty"`
	P99NS      float64 `json:"p99_ns,omitempty"`
	AcceptRate float64 `json:"accept_rate,omitempty"`
	WarmRate   float64 `json:"warm_rate,omitempty"`
	// FallbackRate is the fraction of RandomizedRounding ops that exhausted
	// every sample and fell back to exact branch-and-bound (a pointer so a
	// genuine 0.0 rate still lands in the report, while the entry stays
	// absent from every other benchmark).
	FallbackRate *float64 `json:"fallback_rate,omitempty"`
}

type lpWarmStats struct {
	Attempts int64 `json:"attempts"`
	OK       int64 `json:"ok"`
	// FactorHandoffs counts warm starts served by an explicit
	// Result.Factors → Options.WarmFactors handoff (the parallel
	// branch-and-bound path); BasisExtensions counts warm starts whose
	// basis predated appended rows and whose LU factors were extended
	// with a bordered block instead of refactorized.
	FactorHandoffs  int64   `json:"factor_handoffs"`
	BasisExtensions int64   `json:"basis_extensions"`
	OKRate          float64 `json:"ok_rate"`
	FactorHandoffRt float64 `json:"factor_handoff_rate"`
}

// lpScalingStats reports the equilibration layer's effect on the benchmark
// model (the LPRelaxationCSigma instance): whether scaling engaged at all
// and the matrix coefficient spread max|a|/min|a| over nonzeros before and
// after. The compiled cΣ matrices are near-binary, so "scaled": false with
// equal spreads is the expected (and cheapest) outcome; the field exists so
// a model change that starts engaging the scaler is visible here.
type lpScalingStats struct {
	Scaled       bool    `json:"scaled"`
	SpreadBefore float64 `json:"spread_before"`
	SpreadAfter  float64 `json:"spread_after"`
}

type lpBenchReport struct {
	Timestamp  string          `json:"timestamp"`
	GoVersion  string          `json:"go_version"`
	Benchmarks []lpBenchResult `json:"benchmarks"`
	WarmStart  lpWarmStats     `json:"warm_start"`
	Scaling    lpScalingStats  `json:"scaling"`
	// SteadyStateAllocs is the allocation count of the simplex hot path at
	// steady state, measured differentially: allocations per warm re-solve
	// that performs dual pivots, minus the fixed result-packaging cost of
	// an identical zero-iteration re-solve, divided by the pivots
	// performed. The kernels are allocation-free, so 0 is expected.
	SteadyStateAllocs float64            `json:"steady_state_allocs"`
	Baseline          *lpBenchReport     `json:"baseline,omitempty"`
	Speedup           map[string]float64 `json:"speedup,omitempty"`
}

// measureLP times f (one op per call) with alloc accounting. f reports the
// simplex iterations it consumed; extra metrics from the first op survive
// into the result, except the ratio-test counters, which accumulate over
// every op like the iteration count.
func measureLP(name string, short bool, f func() (lpIters int, extra map[string]float64)) lpBenchResult {
	// Warmup op, also used to calibrate the iteration count to ~1s.
	t0 := time.Now()
	_, extra := f()
	per := time.Since(t0)
	n := int(time.Second / (per + 1))
	if n < 5 {
		n = 5
	}
	nmax := 2000
	if short {
		nmax = 25
	}
	if n > nmax {
		n = nmax
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	iters := 0
	flips, passes := 0.0, 0.0
	start := time.Now()
	for i := 0; i < n; i++ {
		li, ex := f()
		iters += li
		flips += ex["bound_flips"]
		passes += ex["ratio_passes"]
	}
	dt := time.Since(start)
	runtime.ReadMemStats(&ms1)

	res := lpBenchResult{
		Name:             name,
		Iterations:       n,
		NsPerOp:          float64(dt.Nanoseconds()) / float64(n),
		AllocsPerOp:      float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
		BytesPerOp:       float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
		LPItersPerOp:     float64(iters) / float64(n),
		BoundFlipsPerOp:  flips / float64(n),
		RatioPassesPerOp: passes / float64(n),
	}
	if v, ok := extra["bb_nodes"]; ok {
		res.BBNodes = v
	}
	if v, ok := extra["cut_rows_root"]; ok {
		res.CutRowsRoot = v
	}
	if v, ok := extra["cut_rows_separated"]; ok {
		res.CutRowsSeparated = v
	}
	if v, ok := extra["cut_rounds"]; ok {
		res.CutRounds = v
	}
	if v, ok := extra["cut_pool_hits"]; ok {
		res.CutPoolHits = v
	}
	if v, ok := extra["cols_root"]; ok {
		res.ColsRoot = v
	}
	if v, ok := extra["cols_priced"]; ok {
		res.ColsPriced = v
	}
	if v, ok := extra["col_rounds"]; ok {
		res.ColRounds = v
	}
	if v, ok := extra["col_pool_hits"]; ok {
		res.ColPoolHits = v
	}
	return res
}

// steadyStateAllocs measures the per-pivot allocation count of the simplex
// hot path on a solved instance. Both probe solves are warm starts with a
// factor handoff; the first re-solves the unchanged optimum (zero
// iterations — its allocations are pure result packaging), the second
// perturbs a basic column bound so the dual simplex actually pivots. The
// difference per pivot is the hot-path allocation rate.
func steadyStateAllocs(p *lp.Problem) float64 {
	inst := lp.NewInstance(p)
	first := inst.Solve(nil)
	inst.CaptureFactors(&first, nil)
	if first.Status != lp.StatusOptimal {
		return -1
	}
	wb, wf := first.Basis, first.Factors

	// Each probe solve captures its factors into one reused buffer, the way
	// a branch-and-bound node hands them to its children.
	capBuf := &sparselu.Factors{}
	warm := func() lp.Result {
		r := inst.Solve(&lp.Options{WarmBasis: wb, WarmFactors: wf})
		inst.CaptureFactors(&r, capBuf)
		return r
	}
	warm() // warm the solver's persistent scratch
	base := testing.AllocsPerRun(20, func() { warm() })

	// Find a structural column sitting strictly between its bounds whose
	// tightening forces dual pivots.
	const interiorTol = 1e-6 // strictly-interior margin for picking a perturbable column
	perturb := -1
	var plo, phi float64
	for j := range first.X {
		lo, hi := inst.ColBounds(j)
		if x := first.X[j]; x > lo+interiorTol && x < hi-interiorTol {
			perturb, plo, phi = j, lo, hi
			break
		}
	}
	if perturb < 0 {
		return 0 // nothing to perturb: vacuously allocation-free
	}
	x := first.X[perturb]
	iters := 0
	run := func() {
		inst.SetColBounds(perturb, plo, (plo+x)/2) // cut off the optimum
		r1 := warm()
		inst.SetColBounds(perturb, plo, phi) // restore
		r2 := warm()
		iters += r1.Iterations + r2.Iterations
	}
	run() // warm-up: grows any scratch the perturbed solves need
	iters = 0
	const runs = 20
	per := testing.AllocsPerRun(runs, run)
	itersPerRun := float64(iters) / float64(runs+1) // AllocsPerRun calls run runs+1 times
	if itersPerRun <= 0 {
		return 0
	}
	extra := per - 2*base
	if extra < 0 {
		extra = 0
	}
	return extra / itersPerRun
}

// runLPBench executes the LP benchmark suite and writes the JSON report to
// outPath. When comparePath names an earlier report, it is embedded as the
// baseline, per-benchmark speedups are computed, and the run fails if any
// shared benchmark regressed in ns/op, allocs/op or bytes/op by more than
// regressionTol. Short mode caps the op counts and the admission trace for
// CI.
func runLPBench(outPath, comparePath string, short bool) error {
	report := lpBenchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	wa0, wo0 := lp.DebugWarmAttempts.Load(), lp.DebugWarmOK.Load()
	fh0, bx0 := lp.DebugFactorHandoffs.Load(), lp.DebugBasisExtensions.Load()

	// LPRelaxationCSigma: one LP-relaxation solve of the cΣ-Model at the
	// default evaluation scale (the unit of work in every B&B node).
	{
		wl := workload.Default()
		wl.GridRows, wl.GridCols = 2, 2
		wl.NumRequests = 5
		wl.FlexibilityHr = 2
		sc := workload.Generate(wl, 1)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		built := core.BuildCSigma(inst, core.BuildOptions{
			Objective:    core.AccessControl,
			FixedMapping: sc.Mapping,
		})
		scaled, sb, sa := lp.NewInstance(built.Model.LP()).ScalingStats()
		report.Scaling = lpScalingStats{Scaled: scaled, SpreadBefore: sb, SpreadAfter: sa}
		report.SteadyStateAllocs = steadyStateAllocs(built.Model.LP())
		report.Benchmarks = append(report.Benchmarks, measureLP("LPRelaxationCSigma", short,
			func() (int, map[string]float64) {
				sol := built.Model.Relax()
				if !sol.HasSolution {
					fmt.Fprintln(os.Stderr, "lpbench: relaxation not solved")
					os.Exit(1)
				}
				return sol.LPIterations, map[string]float64{
					"bound_flips":  float64(sol.BoundFlips),
					"ratio_passes": float64(sol.RatioPasses),
				}
			}))
	}

	// AblationCSigmaBare: a full bare (no cuts, no model presolve)
	// branch-and-bound solve — the warm-start-heavy workload.
	{
		wl := workload.Default()
		wl.GridRows, wl.GridCols = 2, 2
		wl.NumRequests = 4
		wl.StarLeaves = 1
		wl.FlexibilityHr = 2
		sc := workload.Generate(wl, 7)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		report.Benchmarks = append(report.Benchmarks, measureLP("AblationCSigmaBare", short,
			func() (int, map[string]float64) {
				built := core.BuildCSigma(inst, core.BuildOptions{
					Objective:       core.AccessControl,
					FixedMapping:    sc.Mapping,
					CutMode:         core.CutOff,
					DisablePresolve: true,
				})
				sol, ms := built.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
				if sol == nil || ms.Status != model.StatusOptimal {
					fmt.Fprintf(os.Stderr, "lpbench: ablation solve failed: %v\n", ms.Status)
					os.Exit(1)
				}
				return ms.LPIterations, map[string]float64{
					"bb_nodes":     float64(ms.Nodes),
					"bound_flips":  float64(ms.BoundFlips),
					"ratio_passes": float64(ms.RatioPasses),
				}
			}))
	}

	// LazyCutCSigma: a full branch-and-bound solve with the Constraint-(20)
	// family separated lazily instead of statically emitted — the
	// incremental-row / cut-pool workload (seed chosen so the root LP
	// actually violates precedence candidates).
	{
		wl := workload.Default()
		wl.GridRows, wl.GridCols = 2, 2
		wl.NumRequests = 4
		wl.StarLeaves = 1
		wl.FlexibilityHr = 1.5
		sc := workload.Generate(wl, 3)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		report.Benchmarks = append(report.Benchmarks, measureLP("LazyCutCSigma", short,
			func() (int, map[string]float64) {
				built := core.BuildCSigma(inst, core.BuildOptions{
					Objective:    core.AccessControl,
					FixedMapping: sc.Mapping,
					CutMode:      core.CutLazy,
				})
				sol, ms := built.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
				if sol == nil || ms.Status != model.StatusOptimal {
					fmt.Fprintf(os.Stderr, "lpbench: lazy-cut solve failed: %v\n", ms.Status)
					os.Exit(1)
				}
				return ms.LPIterations, map[string]float64{
					"bb_nodes":           float64(ms.Nodes),
					"bound_flips":        float64(ms.BoundFlips),
					"ratio_passes":       float64(ms.RatioPasses),
					"cut_rows_root":      float64(ms.Cuts.RowsAtRoot),
					"cut_rows_separated": float64(ms.Cuts.SeparatedRows),
					"cut_rounds":         float64(ms.Cuts.Rounds),
					"cut_pool_hits":      float64(ms.Cuts.PoolHits),
				}
			}))
	}

	// WANCSigmaArc / WANCSigmaPath: full branch-and-bound solves of one
	// WAN-scale scenario (ISP-style Waxman substrate, per-link capacities)
	// under the two link-flow formulations. Arc mode carries a flow variable
	// per (request, virtual link, substrate arc); path mode replaces them
	// with priced path columns generated by the reduced-cost Dijkstra
	// pricer, so on link-rich WANs the path LP is far smaller — fewer
	// simplex iterations per op and lower ns/op, with the column-generation
	// counters reported alongside.
	{
		wl := workload.Default()
		wl.Topology = "wan"
		wl.WANNodes = 12
		wl.WANAvgDeg = 4
		wl.NumRequests = 4
		wl.StarLeaves = 1
		wl.FlexibilityHr = 1.5
		sc := workload.Generate(wl, 5)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		for _, mode := range []struct {
			name string
			fm   core.FlowMode
		}{
			{"WANCSigmaArc", core.FlowArc},
			{"WANCSigmaPath", core.FlowPath},
		} {
			mode := mode
			report.Benchmarks = append(report.Benchmarks, measureLP(mode.name, short,
				func() (int, map[string]float64) {
					built := core.BuildCSigma(inst, core.BuildOptions{
						Objective:    core.AccessControl,
						FixedMapping: sc.Mapping,
						FlowMode:     mode.fm,
					})
					sol, ms := built.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
					if sol == nil || ms.Status != model.StatusOptimal {
						fmt.Fprintf(os.Stderr, "lpbench: WAN %v solve failed: %v\n", mode.fm, ms.Status)
						os.Exit(1)
					}
					extra := map[string]float64{
						"bb_nodes":     float64(ms.Nodes),
						"bound_flips":  float64(ms.BoundFlips),
						"ratio_passes": float64(ms.RatioPasses),
					}
					if mode.fm == core.FlowPath {
						extra["cols_root"] = float64(ms.Columns.ColsAtRoot)
						extra["cols_priced"] = float64(ms.Columns.PricedCols)
						extra["col_rounds"] = float64(ms.Columns.Rounds)
						extra["col_pool_hits"] = float64(ms.Columns.PoolHits)
					}
					return ms.LPIterations, extra
				}))
		}
	}

	// RandomizedRounding: one approximate cΣ solve — LP relaxation,
	// fractional decomposition, sampling and repair — per op. It runs
	// before the admission stream on purpose: the stream's long-lived
	// engine leaves a mode-dependent live heap (10000 vs 2000 decisions)
	// that would skew GC pacing of this allocation-heavy loop and make
	// short-mode ns/op incomparable to the full-run baseline.
	// Per-op seeds derive via round.MixSeed so consecutive ops exercise
	// different sample streams deterministically. The p50/p99 fields are
	// per-solve latency quantiles and FallbackRate counts ops that
	// exhausted every sample and ran exact branch-and-bound instead.
	{
		wl := workload.Default()
		wl.FlexibilityHr = 2
		sc := workload.Generate(wl, 1)
		inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
		n := 64
		if short {
			n = 16
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		lpIters, fellBack := 0, 0
		lat := make([]float64, 0, n)
		start := time.Now()
		for op := 0; op < n; op++ {
			sol, rs, err := round.Solve(context.Background(), inst, sc.Mapping, round.Options{
				Seed:      round.MixSeed(1, int64(op)),
				Objective: core.AccessControl,
				Solve:     model.SolveOptions{TimeLimit: 30 * time.Second},
			})
			if err != nil || sol == nil {
				return fmt.Errorf("lpbench: rounding op %d: sol=%v err=%v", op, sol, err)
			}
			lpIters += rs.LPIterations
			if rs.FellBack {
				fellBack++
			}
			lat = append(lat, float64(rs.Runtime.Nanoseconds()))
		}
		total := time.Since(start)
		runtime.ReadMemStats(&ms1)
		fbRate := float64(fellBack) / float64(n)
		report.Benchmarks = append(report.Benchmarks, lpBenchResult{
			Name:         "RandomizedRounding",
			Iterations:   n,
			NsPerOp:      float64(total.Nanoseconds()) / float64(n),
			AllocsPerOp:  float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
			BytesPerOp:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
			LPItersPerOp: float64(lpIters) / float64(n),
			P50NS:        stats.Quantile(lat, 0.5),
			P99NS:        stats.Quantile(lat, 0.99),
			FallbackRate: &fbRate,
		})
	}

	// AdmissionStream: a request arrival trace replayed through the online
	// admission engine in one pass. Unlike the micro-benchmarks above the
	// op is a single admission decision inside one long-lived engine, so
	// the trace runs exactly once: ns/op is total wall clock over decisions,
	// and the p50/p99 fields are the engine's own per-decision latency
	// quantiles — the bounded-tail-latency claim of the admission service.
	{
		wl := workload.Default()
		wl.NumRequests = 10000
		if short {
			wl.NumRequests = 2000
		}
		wl.StarLeaves = 1
		wl.FlexibilityHr = 2
		sc := workload.Generate(wl, 1)
		eng, err := admit.New(admit.Config{
			Sub:     sc.Substrate,
			Horizon: sc.Horizon,
			Solve:   model.SolveOptions{NodeLimit: admit.DefaultNodeLimit},
		})
		if err != nil {
			return fmt.Errorf("lpbench: admission engine: %w", err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for r, req := range sc.Requests {
			if _, err := eng.Admit(context.Background(), req, sc.Mapping[r]); err != nil {
				return fmt.Errorf("lpbench: admission stream request %d: %w", r, err)
			}
		}
		total := time.Since(start)
		runtime.ReadMemStats(&ms1)
		es := eng.Stats()
		n := es.Decisions
		report.Benchmarks = append(report.Benchmarks, lpBenchResult{
			Name:         "AdmissionStream",
			Iterations:   n,
			NsPerOp:      float64(total.Nanoseconds()) / float64(n),
			AllocsPerOp:  float64(ms1.Mallocs-ms0.Mallocs) / float64(n),
			BytesPerOp:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n),
			LPItersPerOp: float64(es.TotalLPIters) / float64(n),
			BBNodes:      float64(es.TotalNodes) / float64(n),
			P50NS:        float64(es.LatencyP50.Nanoseconds()),
			P99NS:        float64(es.LatencyP99.Nanoseconds()),
			AcceptRate:   es.AcceptRate(),
			WarmRate:     es.WarmRate(),
		})
	}

	wa := lp.DebugWarmAttempts.Load() - wa0
	wo := lp.DebugWarmOK.Load() - wo0
	fh := lp.DebugFactorHandoffs.Load() - fh0
	bx := lp.DebugBasisExtensions.Load() - bx0
	report.WarmStart = lpWarmStats{Attempts: wa, OK: wo, FactorHandoffs: fh, BasisExtensions: bx}
	if wa > 0 {
		report.WarmStart.OKRate = float64(wo) / float64(wa)
		report.WarmStart.FactorHandoffRt = float64(fh) / float64(wa)
	}

	var regressions []string
	if comparePath != "" {
		data, err := os.ReadFile(comparePath)
		if err != nil {
			return fmt.Errorf("lpbench: read baseline: %w", err)
		}
		base := &lpBenchReport{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("lpbench: parse baseline: %w", err)
		}
		base.Baseline = nil // never nest more than one level
		report.Baseline = base
		report.Speedup = map[string]float64{}
		for _, b := range base.Benchmarks {
			for _, cur := range report.Benchmarks {
				if cur.Name != b.Name {
					continue
				}
				if cur.NsPerOp > 0 {
					report.Speedup[b.Name] = b.NsPerOp / cur.NsPerOp
				}
				nsTol := regressionTol
				if short {
					nsTol += shortNsSlack
				}
				if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+nsTol) {
					regressions = append(regressions, fmt.Sprintf(
						"%s: ns/op %.0f vs baseline %.0f (+%.0f%%)",
						b.Name, cur.NsPerOp, b.NsPerOp, 100*(cur.NsPerOp/b.NsPerOp-1)))
				}
				if b.AllocsPerOp > 0 && cur.AllocsPerOp > b.AllocsPerOp*(1+regressionTol) {
					regressions = append(regressions, fmt.Sprintf(
						"%s: allocs/op %.0f vs baseline %.0f (+%.0f%%)",
						b.Name, cur.AllocsPerOp, b.AllocsPerOp, 100*(cur.AllocsPerOp/b.AllocsPerOp-1)))
				}
				if b.BytesPerOp > 0 && cur.BytesPerOp > b.BytesPerOp*(1+regressionTol) {
					regressions = append(regressions, fmt.Sprintf(
						"%s: bytes/op %.0f vs baseline %.0f (+%.0f%%)",
						b.Name, cur.BytesPerOp, b.BytesPerOp, 100*(cur.BytesPerOp/b.BytesPerOp-1)))
				}
			}
		}
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", outPath)
		for _, b := range report.Benchmarks {
			line := fmt.Sprintf("# %-22s %12.0f ns/op %10.0f allocs/op %8.1f lp_iters/op", b.Name, b.NsPerOp, b.AllocsPerOp, b.LPItersPerOp)
			if sp, ok := report.Speedup[b.Name]; ok {
				line += fmt.Sprintf("   %.2fx vs baseline", sp)
			}
			if b.BoundFlipsPerOp > 0 {
				line += fmt.Sprintf("   %.1f bound flips/op", b.BoundFlipsPerOp)
			}
			if b.CutRowsRoot > 0 {
				line += fmt.Sprintf("   cuts: %.0f root rows, %.0f separated in %.0f rounds, %.0f pool hits",
					b.CutRowsRoot, b.CutRowsSeparated, b.CutRounds, b.CutPoolHits)
			}
			if b.ColsRoot > 0 {
				line += fmt.Sprintf("   cols: %.0f root, %.0f priced in %.0f rounds, %.0f pool hits",
					b.ColsRoot, b.ColsPriced, b.ColRounds, b.ColPoolHits)
			}
			switch {
			case b.Name == "RandomizedRounding":
				fb := 0.0
				if b.FallbackRate != nil {
					fb = *b.FallbackRate
				}
				line += fmt.Sprintf("   p50 %.2fms, p99 %.2fms, fallback %.2f",
					b.P50NS/1e6, b.P99NS/1e6, fb)
			case b.P99NS > 0:
				line += fmt.Sprintf("   stream: %d decisions, p50 %.2fms, p99 %.2fms, accept %.2f, warm %.2f",
					b.Iterations, b.P50NS/1e6, b.P99NS/1e6, b.AcceptRate, b.WarmRate)
			}
			fmt.Println(line)
		}
		fmt.Printf("# warm starts: %d attempts, %.0f%% adopted, %.0f%% factor handoffs, %d basis extensions\n",
			wa, 100*report.WarmStart.OKRate, 100*report.WarmStart.FactorHandoffRt, bx)
		fmt.Printf("# scaling: active=%v spread %.3g -> %.3g; steady-state allocs/pivot: %.3g\n",
			report.Scaling.Scaled, report.Scaling.SpreadBefore, report.Scaling.SpreadAfter, report.SteadyStateAllocs)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("lpbench: performance regressed vs %s:\n  %s",
			comparePath, strings.Join(regressions, "\n  "))
	}
	return nil
}
