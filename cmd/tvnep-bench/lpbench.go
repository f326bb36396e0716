package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/round"
	"tvnep/internal/stats"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// The -json mode: a machine-readable benchmark of the solver layers. Every
// entry of lpBenches runs a fixed number of ops, so every counter in the
// report — simplex iterations, branch-and-bound nodes, long-step ratio-test
// activity, cut and column counts, accept and fallback rates, and the
// warm-start totals of the lp.Debug* counters — is the same on
// every run of one build. Time is process CPU per op. The report also
// carries the equilibration-scaling diagnostics and a steady-state
// allocation probe. Pass -compare with a previously written report to embed
// it as the baseline, compute speedups, and fail the run when any counter
// differs from it, CPU time per op rises by more than cpuTol, or
// allocations or bytes per op by more than allocTol.

// Regression-guard tolerances of -compare, as fractions of the baseline.
const (
	cpuTol   = 0.30
	allocTol = 0.10
)

// lpCounters are the deterministic counters of one op. The measuring loop
// sums them over an entry's ops and reports their per-op means; counters an
// entry does not produce stay zero and are omitted.
type lpCounters struct {
	LPIters float64 `json:"lp_iters_per_op"`
	BBNodes float64 `json:"bb_nodes,omitempty"`
	// Long-step dual ratio-test activity (see lp.Result): nonbasic bound
	// flips absorbed without a pivot, and breakpoints walked.
	BoundFlips  float64 `json:"bound_flips_per_op,omitempty"`
	RatioPasses float64 `json:"ratio_passes_per_op,omitempty"`
	// Lazy-separation statistics (LazyCutCSigma only): rows present in the
	// root LP vs rows appended on demand, separation rounds, and pool
	// dedup hits.
	CutRowsRoot      float64 `json:"cut_rows_root,omitempty"`
	CutRowsSeparated float64 `json:"cut_rows_separated,omitempty"`
	CutRounds        float64 `json:"cut_rounds,omitempty"`
	CutPoolHits      float64 `json:"cut_pool_hits,omitempty"`
	// Column-generation statistics (WANCSigmaPath only): rows and
	// structural columns in the root LP, columns appended by pricing, the
	// state rows they opened as companion rows, pricing rounds and pool
	// dedup hits — the pricing mirror of the lazy-cut fields above.
	RowsRoot      float64 `json:"rows_root,omitempty"`
	ColsRoot      float64 `json:"cols_root,omitempty"`
	ColsPriced    float64 `json:"cols_priced,omitempty"`
	CompanionRows float64 `json:"companion_rows,omitempty"`
	ColRounds     float64 `json:"col_rounds,omitempty"`
	ColPoolHits   float64 `json:"col_pool_hits,omitempty"`
	// AcceptRate and FallbackRate are 1 for an admission decision that
	// accepted and for a rounding op that exhausted every sample and fell
	// back to exact branch-and-bound, so their means are the rates.
	AcceptRate   float64 `json:"accept_rate,omitempty"`
	FallbackRate float64 `json:"fallback_rate,omitempty"`
}

// eachCounter calls f with the JSON name of every counter field and
// pointers to that field in a and b.
func eachCounter(a, b *lpCounters, f func(name string, x, y *float64)) {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		name, _, _ := strings.Cut(va.Type().Field(i).Tag.Get("json"), ",")
		f(name, va.Field(i).Addr().Interface().(*float64), vb.Field(i).Addr().Interface().(*float64))
	}
}

type lpBenchResult struct {
	Name        string  `json:"name"`
	Ops         int     `json:"ops"`
	CPUNsPerOp  float64 `json:"cpu_ns_per_op"`
	CPUP50NS    float64 `json:"cpu_p50_ns"`
	CPUP99NS    float64 `json:"cpu_p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	lpCounters
}

type lpWarmStats struct {
	Attempts int64 `json:"attempts"`
	OK       int64 `json:"ok"`
	// FactorHandoffs counts warm starts served by an explicit
	// Result.Factors → Options.WarmFactors handoff (the branch-and-bound
	// node path); BasisExtensions counts warm starts whose
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
	Timestamp  string             `json:"timestamp"`
	GoVersion  string             `json:"go_version"`
	Benchmarks []lpBenchResult    `json:"benchmarks"`
	WarmStart  lpWarmStats        `json:"warm_start"`
	Scaling    lpScalingStats     `json:"scaling"`
	Baseline   *lpBenchReport     `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`
}

// lpOp runs op i of a benchmark and returns its counters.
type lpOp func(i int) (lpCounters, error)

// lpBench is one entry of the benchmark table: setup builds the entry's
// scenario outside the measurement and returns its op, which runs ops
// times.
type lpBench struct {
	name  string
	ops   int
	setup func() (lpOp, error)
}

// streamDecisions is the length of the AdmissionStream trace.
const streamDecisions = 10000

// lpBenches is the benchmark table. The op counts hold each entry near one
// second of CPU on a 2-vCPU host, and the stream at its full trace.
var lpBenches = []lpBench{
	// One LP-relaxation solve of the cΣ-Model at the default evaluation
	// scale (the unit of work in every B&B node). It runs about four
	// seconds: over six full runs of one build on a shared 2-vCPU host its
	// CPU per op spread 1.60× at 800 ops, 1.27× at 1,600 and 1.08× at
	// 3,200, and the -compare gate allows 30%.
	{"LPRelaxationCSigma", 3200, func() (lpOp, error) {
		m := relaxModel().Model
		return func(int) (lpCounters, error) {
			sol := m.Relax()
			if !sol.HasSolution {
				return lpCounters{}, errors.New("relaxation not solved")
			}
			return lpCounters{LPIters: float64(sol.LPIterations),
				BoundFlips: float64(sol.BoundFlips), RatioPasses: float64(sol.RatioPasses)}, nil
		}, nil
	}},
	// A bare (no cuts, no model presolve) branch-and-bound solve — the
	// warm-start-heavy workload.
	{"AblationCSigmaBare", 90, solveBench(7, func(wl *workload.Config) {
		wl.GridRows, wl.GridCols, wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 2, 2, 4, 1, 2
	}, core.BuildOptions{CutMode: core.CutOff, DisablePresolve: true})},
	// The Constraint-(20) family separated lazily instead of statically
	// emitted — the incremental-row / cut-pool workload (seed chosen so
	// the root LP actually violates precedence candidates).
	{"LazyCutCSigma", 64, solveBench(3, func(wl *workload.Config) {
		wl.GridRows, wl.GridCols, wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 2, 2, 4, 1, 1.5
	}, core.BuildOptions{CutMode: core.CutLazy})},
	// One WAN-scale scenario (ISP-style Waxman substrate, per-link
	// capacities) under the two link-flow formulations. Arc mode carries a
	// flow variable per (request, virtual link, substrate arc); path mode
	// replaces them with path columns priced by the reduced-cost Dijkstra
	// pricer, so its LP is far smaller.
	{"WANCSigmaArc", 300, solveBench(5, wanScenario, core.BuildOptions{FlowMode: core.FlowArc})},
	{"WANCSigmaPath", 400, solveBench(5, wanScenario, core.BuildOptions{FlowMode: core.FlowPath})},
	// One approximate cΣ solve — LP relaxation, fractional decomposition,
	// sampling and repair — per op, with the op's seed derived by
	// round.MixSeed so consecutive ops sample different streams. It runs
	// before the admission stream on purpose: the stream's long-lived
	// engine leaves a live heap that would skew GC pacing of this
	// allocation-heavy loop.
	{"RandomizedRounding", 64, func() (lpOp, error) {
		inst, mapping := scenario(1, func(wl *workload.Config) { wl.FlexibilityHr = 2 })
		return func(i int) (lpCounters, error) {
			sol, rs, err := round.Solve(context.Background(), inst, mapping, round.Options{
				Seed:      round.MixSeed(1, int64(i)),
				Objective: core.AccessControl,
				Solve:     model.SolveOptions{TimeLimit: 30 * time.Second},
			})
			if err != nil || sol == nil {
				return lpCounters{}, fmt.Errorf("sol=%v err=%v", sol, err)
			}
			return lpCounters{LPIters: float64(rs.LPIterations), FallbackRate: flag01(rs.FellBack)}, nil
		}, nil
	}},
	// A request arrival trace replayed through one long-lived online
	// admission engine: op i is the admission decision of request i.
	{"AdmissionStream", streamDecisions, func() (lpOp, error) {
		inst, mapping := scenario(1, func(wl *workload.Config) {
			wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = streamDecisions, 1, 2
		})
		eng, err := admit.New(admit.Config{
			Sub:     inst.Sub,
			Horizon: inst.Horizon,
			Solve:   model.SolveOptions{NodeLimit: admit.DefaultNodeLimit},
		})
		if err != nil {
			return nil, err
		}
		return func(i int) (lpCounters, error) {
			d, err := eng.Admit(context.Background(), inst.Reqs[i], mapping[i])
			if err != nil {
				return lpCounters{}, err
			}
			return lpCounters{
				LPIters:    float64(d.Stats.LPIterations),
				BBNodes:    float64(d.Stats.Nodes),
				AcceptRate: flag01(d.Accepted),
			}, nil
		}, nil
	}},
}

// scenario generates seed's scenario of the default workload after edit.
func scenario(seed int64, edit func(wl *workload.Config)) (*core.Instance, vnet.NodeMapping) {
	wl := workload.Default()
	edit(&wl)
	sc := workload.Generate(wl, seed)
	return &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}, sc.Mapping
}

func wanScenario(wl *workload.Config) {
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 4, 1, 1.5
}

// relaxModel builds the cΣ model LPRelaxationCSigma relaxes.
func relaxModel() *core.Built {
	inst, mapping := scenario(1, func(wl *workload.Config) {
		wl.GridRows, wl.GridCols, wl.NumRequests, wl.FlexibilityHr = 2, 2, 5, 2
	})
	return core.BuildCSigma(inst, core.BuildOptions{Objective: core.AccessControl, FixedMapping: mapping})
}

// solveBench is an entry whose op builds the access-control cΣ model of
// seed's scenario with opts and solves it to optimality by branch and
// bound. Cut counters are reported under lazy separation and column
// counters under priced path columns, the modes that separate and price.
func solveBench(seed int64, edit func(wl *workload.Config), opts core.BuildOptions) func() (lpOp, error) {
	return func() (lpOp, error) {
		inst, mapping := scenario(seed, edit)
		opts.Objective, opts.FixedMapping = core.AccessControl, mapping
		return func(int) (lpCounters, error) {
			built := core.BuildCSigma(inst, opts)
			sol, ms := built.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
			if sol == nil || ms.Status != model.StatusOptimal {
				return lpCounters{}, fmt.Errorf("solve ended %v", ms.Status)
			}
			c := lpCounters{LPIters: float64(ms.LPIterations), BBNodes: float64(ms.Nodes),
				BoundFlips: float64(ms.BoundFlips), RatioPasses: float64(ms.RatioPasses)}
			if opts.CutMode == core.CutLazy {
				c.CutRowsRoot, c.CutRowsSeparated = float64(ms.Cuts.RowsAtRoot), float64(ms.Cuts.SeparatedRows)
				c.CutRounds, c.CutPoolHits = float64(ms.Cuts.Rounds), float64(ms.Cuts.PoolHits)
			}
			if opts.FlowMode == core.FlowPath {
				c.RowsRoot, c.CompanionRows = float64(ms.Cuts.RowsAtRoot), float64(ms.Columns.CompanionRows)
				c.ColsRoot, c.ColsPriced = float64(ms.Columns.ColsAtRoot), float64(ms.Columns.PricedCols)
				c.ColRounds, c.ColPoolHits = float64(ms.Columns.Rounds), float64(ms.Columns.PoolHits)
			}
			return c, nil
		}, nil
	}
}

func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// processCPU returns the CPU time (user + system) the process has used. On
// a virtual machine whose host steals cycles it stays steady where wall
// time does not: stolen time is not charged to the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs b's op b.ops times and reports the per-op means of its
// counters, process CPU time and allocations.
func measure(b lpBench) (lpBenchResult, error) {
	op, err := b.setup()
	if err != nil {
		return lpBenchResult{}, fmt.Errorf("lpbench: %s: %w", b.name, err)
	}
	cpu := make([]float64, b.ops)
	var sum lpCounters
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.ops; i++ {
		t0 := processCPU()
		c, err := op(i)
		cpu[i] = float64(processCPU() - t0)
		if err != nil {
			return lpBenchResult{}, fmt.Errorf("lpbench: %s op %d: %w", b.name, i, err)
		}
		eachCounter(&sum, &c, func(_ string, s, x *float64) { *s += *x })
	}
	runtime.ReadMemStats(&ms1)
	n := float64(b.ops)
	res := lpBenchResult{
		Name:        b.name,
		Ops:         b.ops,
		CPUNsPerOp:  stats.Mean(cpu),
		CPUP50NS:    stats.Quantile(cpu, 0.5),
		CPUP99NS:    stats.Quantile(cpu, 0.99),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / n,
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
	}
	eachCounter(&res.lpCounters, &sum, func(_ string, m, s *float64) { *m = *s / n })
	return res, nil
}

// compareLP records cur's speedups over base (baseline CPU time per op
// over current) and lists its regressions against base: a baseline entry
// that is missing, any op count, counter, rate or warm-start total that
// differs, and CPU time per op above cpuTol or allocations or bytes per op
// above allocTol over the baseline.
func compareLP(cur, base *lpBenchReport) []string {
	cur.Speedup = map[string]float64{}
	var regs []string
	bad := func(format string, args ...any) { regs = append(regs, fmt.Sprintf(format, args...)) }
	for _, b := range base.Benchmarks {
		var c *lpBenchResult
		for i := range cur.Benchmarks {
			if cur.Benchmarks[i].Name == b.Name {
				c = &cur.Benchmarks[i]
			}
		}
		if c == nil {
			bad("%s: missing", b.Name)
			continue
		}
		if c.CPUNsPerOp > 0 && b.CPUNsPerOp > 0 {
			cur.Speedup[b.Name] = b.CPUNsPerOp / c.CPUNsPerOp
		}
		if c.Ops != b.Ops {
			bad("%s: ops %d vs baseline %d", b.Name, c.Ops, b.Ops)
		}
		eachCounter(&c.lpCounters, &b.lpCounters, func(name string, x, y *float64) {
			//lint:allow floateq -- counters are deterministic, so any difference is a change
			if *x != *y {
				bad("%s: %s %v vs baseline %v", b.Name, name, *x, *y)
			}
		})
		for _, m := range []struct {
			name           string
			cur, base, tol float64
		}{
			{"cpu_ns_per_op", c.CPUNsPerOp, b.CPUNsPerOp, cpuTol},
			{"allocs_per_op", c.AllocsPerOp, b.AllocsPerOp, allocTol},
			{"bytes_per_op", c.BytesPerOp, b.BytesPerOp, allocTol},
		} {
			if m.base > 0 && m.cur > m.base*(1+m.tol) {
				bad("%s: %s %.0f vs baseline %.0f (+%.0f%%)", b.Name, m.name, m.cur, m.base, 100*(m.cur/m.base-1))
			}
		}
	}
	if cur.WarmStart != base.WarmStart {
		bad("warm_start %+v vs baseline %+v", cur.WarmStart, base.WarmStart)
	}
	return regs
}

// runLPBench runs the benchmark table and writes the JSON report to
// outPath. When comparePath names an earlier report, it is embedded as the
// baseline and the run fails on any regression compareLP finds.
func runLPBench(outPath, comparePath string) error {
	var base *lpBenchReport
	if comparePath != "" {
		data, err := os.ReadFile(comparePath)
		if err != nil {
			return fmt.Errorf("lpbench: read baseline: %w", err)
		}
		base = &lpBenchReport{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("lpbench: parse baseline: %w", err)
		}
		base.Baseline = nil // never nest more than one level
	}
	report := lpBenchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	wa0, wo0 := lp.DebugWarmAttempts.Load(), lp.DebugWarmOK.Load()
	fh0, bx0 := lp.DebugFactorHandoffs.Load(), lp.DebugBasisExtensions.Load()

	scaled, sb, sa := lp.NewInstance(relaxModel().Model.LP()).ScalingStats()
	report.Scaling = lpScalingStats{Scaled: scaled, SpreadBefore: sb, SpreadAfter: sa}
	for _, b := range lpBenches {
		res, err := measure(b)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, res)
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
	if base != nil {
		report.Baseline = base
		regressions = compareLP(&report, base)
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
			line := fmt.Sprintf("# %-20s %5d ops %10.0f cpu-ns/op (p50 %.2fms, p99 %.2fms) %6.0f allocs/op",
				b.Name, b.Ops, b.CPUNsPerOp, b.CPUP50NS/1e6, b.CPUP99NS/1e6, b.AllocsPerOp)
			if sp, ok := report.Speedup[b.Name]; ok {
				line += fmt.Sprintf("  %.2fx vs baseline", sp)
			}
			eachCounter(&b.lpCounters, &b.lpCounters, func(name string, x, _ *float64) {
				if *x != 0 {
					line += fmt.Sprintf("  %s=%.4g", name, *x)
				}
			})
			fmt.Println(line)
		}
		fmt.Printf("# warm starts: %d attempts, %.0f%% adopted, %.0f%% factor handoffs, %d basis extensions\n",
			wa, 100*report.WarmStart.OKRate, 100*report.WarmStart.FactorHandoffRt, bx)
		fmt.Printf("# scaling: active=%v spread %.3g -> %.3g\n",
			report.Scaling.Scaled, report.Scaling.SpreadBefore, report.Scaling.SpreadAfter)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("lpbench: regressed vs %s:\n  %s",
			comparePath, strings.Join(regressions, "\n  "))
	}
	return nil
}
