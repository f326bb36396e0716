// Package eval is the computational-evaluation harness of Section VI: it
// sweeps temporal flexibility over a family of random scenarios and records,
// per (flexibility, seed, algorithm), the solve statistics from which every
// figure of the paper (Figures 3–9) is regenerated.
//
// Sweeps are embarrassingly parallel across (flexibility, seed) scenarios:
// every sweep fans its scenarios out over a bounded worker pool (Config.
// Solve.Workers, default runtime.NumCPU()) while emitting records and
// progress lines in exactly the order a serial run would produce — results
// are handed back in scenario order, so output is deterministic and
// independent of the worker count. Cancelling the context stops every
// in-flight solve cooperatively.
package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/stats"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// Config drives a sweep.
type Config struct {
	Workload workload.Config
	// FlexMinutes is the x-axis of every figure: the scheduling slack (in
	// "minutes" of scenario time, 60 min = 1 h) granted to every request.
	FlexMinutes []float64
	// Seeds identifies the independent scenarios per flexibility step
	// (the paper uses 24).
	Seeds []int64
	// Solve configures every MIP solve of the sweep. TimeLimit bounds each
	// solve (the paper uses one hour); Workers bounds the number of
	// scenarios solved concurrently (≤ 0 means runtime.NumCPU()).
	Solve model.SolveOptions
	// Counters, when non-nil, accumulates aggregate solver activity across
	// the sweep (thread-safe; may be shared between sweeps).
	Counters *Counters
	// Certify runs the full internal/certify certificate (capacities at
	// every event interval, flow conservation, objective recomputation, and
	// — under CutLazy — re-validation of every applied cut against the
	// dependency graph) on every solution produced by the sweep, counting
	// verdicts in Counters.
	Certify bool
	// CutMode selects the Constraint-(20) pipeline for every cΣ build of the
	// sweep: static emission (default), lazy separation, or off. Δ/Σ builds
	// ignore it.
	CutMode core.CutMode
	// FlowMode selects arc-based (default) or path-based link flows for
	// every cΣ build of the sweep; path mode prices path columns on demand.
	// Δ/Σ builds ignore it, and so does greedy, which decides on arc flows.
	FlowMode core.FlowMode
	// Seed is the base seed of every randomized component of a sweep (the
	// rounding tier). Scenario-local seeds are derived from it with
	// round.MixSeed, so sweeps are bit-identical for equal Seed values and
	// every worker count; there is no package-level randomness anywhere.
	Seed int64
}

// Default returns a configuration sized for the pure-Go solver: the paper's
// distributions on a smaller grid with fewer requests, a sweep of 0–300
// minutes in 60-minute steps, and short per-solve limits.
func Default() Config {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 5
	wl.StarLeaves = 2
	return Config{
		Workload:    wl,
		FlexMinutes: []float64{0, 60, 120, 180, 240, 300},
		Seeds:       []int64{1, 2, 3, 4, 5},
		Solve:       model.SolveOptions{TimeLimit: 60 * time.Second},
	}
}

// Paper returns the paper's exact evaluation setup (Section VI-A): 4×5
// grid, 20 requests, flexibility 0–300 min in 30-minute steps, 24 seeds,
// one-hour time limit. Running it with this repository's solver takes far
// longer than with Gurobi; it exists for completeness.
func Paper() Config {
	flex := make([]float64, 11)
	seeds := make([]int64, 24)
	for i := range flex {
		flex[i] = float64(30 * i)
	}
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return Config{
		Workload:    workload.PaperScale(),
		FlexMinutes: flex,
		Seeds:       seeds,
		Solve:       model.SolveOptions{TimeLimit: time.Hour},
	}
}

// Record is one solve outcome.
type Record struct {
	FlexMin  float64
	Seed     int64
	Form     core.Formulation
	Obj      core.Objective
	Algo     string // "mip" or "greedy"
	Runtime  time.Duration
	Gap      float64 // relative branch-and-bound gap; +Inf if no solution
	Value    float64 // objective value achieved (0 if none)
	Accepted int
	Optimal  bool
	Feasible bool // independent checker verdict (false when no solution)
	// Certified is the internal/certify verdict (only meaningful when
	// Config.Certify is set and a solution exists).
	Certified bool
	Nodes     int
	LPIters   int
	// FellBack reports that a rounding solve exhausted its samples and ran
	// the exact branch-and-bound fallback (rounding records only).
	FellBack bool
}

// scenKey identifies one scenario of the sweep grid.
type scenKey struct {
	flex float64
	seed int64
}

// pairs flattens the (flexibility × seed) grid in sweep order.
func (c Config) pairs() []scenKey {
	out := make([]scenKey, 0, len(c.FlexMinutes)*len(c.Seeds))
	for _, flex := range c.FlexMinutes {
		for _, seed := range c.Seeds {
			out = append(out, scenKey{flex, seed})
		}
	}
	return out
}

// scenario builds the core instance for (flexMin, seed). Generation is
// deterministic in (config, seed) and uses no shared state, so scenarios
// can be built concurrently.
func (c Config) scenario(flexMin float64, seed int64) (*core.Instance, vnet.NodeMapping) {
	wl := c.Workload
	wl.FlexibilityHr = flexMin / 60
	sc := workload.Generate(wl, seed)
	return &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}, sc.Mapping
}

// count feeds one model solution into the aggregate counters, if any.
func (c Config) count(ms *model.Solution) {
	if c.Counters == nil {
		return
	}
	c.Counters.Solves.Add(1)
	if ms.Status == model.StatusOptimal {
		c.Counters.Optimal.Add(1)
	}
	if ms.Status == model.StatusCancelled {
		c.Counters.Cancelled.Add(1)
	}
	c.Counters.Nodes.Add(int64(ms.Nodes))
	c.Counters.LPIters.Add(int64(ms.LPIterations))
	c.Counters.BoundFlips.Add(int64(ms.BoundFlips))
	c.Counters.RatioPasses.Add(int64(ms.RatioPasses))
	c.Counters.CutRowsRoot.Add(int64(ms.Cuts.RowsAtRoot))
	c.Counters.CutRowsSeparated.Add(int64(ms.Cuts.SeparatedRows))
	c.Counters.CutRounds.Add(int64(ms.Cuts.Rounds))
	c.Counters.CutOffered.Add(int64(ms.Cuts.Offered))
	c.Counters.CutPoolHits.Add(int64(ms.Cuts.PoolHits))
}

// solveOne runs a single MIP solve and converts it into a Record. A
// context cancelled before the solve starts short-circuits the (potentially
// expensive) model build too, so an interrupted sweep drains its remaining
// scenarios in microseconds instead of constructing models that the solver
// would only refuse to run.
func (c Config) solveOne(ctx context.Context, f core.Formulation, obj core.Objective, inst *core.Instance,
	mapping vnet.NodeMapping, flexMin float64, seed int64) Record {
	if ctx != nil && ctx.Err() != nil {
		if c.Counters != nil {
			c.Counters.Solves.Add(1)
			c.Counters.Cancelled.Add(1)
		}
		return Record{
			FlexMin: flexMin, Seed: seed, Form: f, Obj: obj, Algo: "mip",
			Gap: math.Inf(1),
		}
	}
	bo := core.BuildOptions{Objective: obj, FixedMapping: mapping, CutMode: c.CutMode}
	if f == core.CSigma {
		bo.FlowMode = c.FlowMode // Δ/Σ have no path-flow variant
	}
	b := core.Build(f, inst, bo)
	inner := c.Solve
	sol, ms := b.Solve(ctx, &inner)
	c.count(ms)
	rec := Record{
		FlexMin: flexMin, Seed: seed, Form: f, Obj: obj, Algo: "mip",
		Runtime: ms.Runtime, Gap: ms.Gap, Nodes: ms.Nodes, LPIters: ms.LPIterations,
		Optimal: ms.Status == model.StatusOptimal,
	}
	if sol != nil {
		rec.Value = sol.Objective
		rec.Accepted = sol.NumAccepted()
		rec.Feasible = solution.Check(inst.Sub, inst.Reqs, sol) == nil
		if c.Certify {
			rec.Certified = c.certifyOne(inst, sol, obj, mapping, b, ms)
		}
	}
	return rec
}

// certifyOne runs the independent certificate on one solution and folds the
// verdict into the counters. When the solve carries applied cuts (lazy
// separation), every cut row is additionally re-validated against the
// dependency graph — a cut excluding this certified-feasible incumbent is a
// named violation. Violations are reported on stderr so a failing sweep
// names the defect even when the figure aggregation hides the record.
// b and ms may be nil (the greedy path has no single built model).
func (c Config) certifyOne(inst *core.Instance, sol *solution.Solution,
	obj core.Objective, mapping vnet.NodeMapping, b *core.Built, ms *model.Solution) bool {
	rep := certify.Solution(inst, sol, certify.Options{Objective: obj, Mapping: mapping})
	if rep.OK() && b != nil && ms != nil {
		rep = certify.Cuts(b, ms)
	}
	if rep.OK() && b != nil && ms != nil {
		rep = certify.Columns(b, ms)
	}
	if c.Counters != nil {
		c.Counters.Certified.Add(1)
		if !rep.OK() {
			c.Counters.CertifyFailed.Add(1)
		}
	}
	if err := rep.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "eval: certificate failure (%v): %v\n", obj, err)
		return false
	}
	return true
}

// scenResult is what one parallel scenario hands back to the emitter: its
// records plus the progress text a serial run would have printed.
type scenResult struct {
	recs []Record
	log  string
}

// sweep runs one scenario body per (flex, seed) pair on the worker pool and
// concatenates records in scenario order.
func (c Config) sweep(ctx context.Context, progress io.Writer,
	body func(ctx context.Context, key scenKey, log *strings.Builder) []Record) []Record {
	keys := c.pairs()
	var out []Record
	runOrdered(ctx, c.Solve.Workers, len(keys),
		func(ctx context.Context, i int) scenResult {
			var log strings.Builder
			recs := body(ctx, keys[i], &log)
			return scenResult{recs: recs, log: log.String()}
		},
		func(_ int, r scenResult) {
			out = append(out, r.recs...)
			if progress != nil && r.log != "" {
				io.WriteString(progress, r.log)
			}
		})
	return out
}

// AccessControlSweep solves every (flexibility, seed) scenario under the
// access-control objective with each formulation. It yields the data behind
// Figures 3, 4, 8 and 9. Scenarios run concurrently (Config.Solve.Workers);
// records and progress lines keep serial order.
//
//det:entry
func (c Config) AccessControlSweep(ctx context.Context, forms []core.Formulation, progress io.Writer) []Record {
	return c.sweep(ctx, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		recs := make([]Record, 0, len(forms))
		for _, f := range forms {
			rec := c.solveOne(ctx, f, core.AccessControl, inst, mapping, key.flex, key.seed)
			recs = append(recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d %-2v obj=%7.2f gap=%6.3g time=%8.2fs nodes=%d\n",
				key.flex, key.seed, f, rec.Value, rec.Gap, rec.Runtime.Seconds(), rec.Nodes)
		}
		return recs
	})
}

// ObjectivesSweep runs the cΣ-Model under the three fixed-set objectives of
// Section IV-E (earliness, node-load balance, link disabling) for every
// scenario, embedding the request set accepted by an access-control
// pre-pass (the paper's Figure 8 reports exactly that set size). Data for
// Figures 5 and 6.
//
//det:entry
func (c Config) ObjectivesSweep(ctx context.Context, progress io.Writer) []Record {
	return c.sweep(ctx, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		pre := core.BuildCSigma(inst, core.BuildOptions{
			Objective: core.AccessControl, FixedMapping: mapping, CutMode: c.CutMode,
			FlowMode: c.FlowMode,
		})
		preInner := c.Solve
		preSol, preMS := pre.Solve(ctx, &preInner)
		c.count(preMS)
		if preSol == nil {
			return nil
		}
		// Restrict to the accepted set.
		var reqs []*vnet.Request
		var subMap vnet.NodeMapping
		for r, acc := range preSol.Accepted {
			if acc {
				reqs = append(reqs, inst.Reqs[r])
				subMap = append(subMap, mapping[r])
			}
		}
		if len(reqs) == 0 {
			return nil
		}
		sub := &core.Instance{Sub: inst.Sub, Reqs: reqs, Horizon: inst.Horizon}
		var recs []Record
		for _, obj := range []core.Objective{core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks} {
			rec := c.solveOne(ctx, core.CSigma, obj, sub, subMap, key.flex, key.seed)
			rec.Accepted = len(reqs)
			recs = append(recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d cΣ %-18v obj=%7.2f gap=%6.3g time=%8.2fs\n",
				key.flex, key.seed, rec.Obj, rec.Value, rec.Gap, rec.Runtime.Seconds())
		}
		return recs
	})
}

// GreedySweep runs cΣ_A^G and the optimal cΣ-Model side by side on every
// scenario (Figure 7 reports the relative performance).
//
//det:entry
func (c Config) GreedySweep(ctx context.Context, progress io.Writer) []Record {
	return c.sweep(ctx, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		opt := c.solveOne(ctx, core.CSigma, core.AccessControl, inst, mapping, key.flex, key.seed)

		start := time.Now() //lint:allow nondet -- greedy runtime measurement; recorded, not branched on
		gso := c.Solve
		gsol, gstats, err := admit.Greedy(ctx, inst, mapping, core.BuildOptions{CutMode: c.CutMode}, &gso)
		rec := Record{
			FlexMin: key.flex, Seed: key.seed, Form: core.CSigma,
			Obj: core.AccessControl, Algo: "greedy",
			Runtime: time.Since(start), //lint:allow nondet -- greedy runtime measurement
			Nodes:   gstats.TotalNodes, LPIters: gstats.TotalLPIters,
		}
		if err == nil && gsol != nil {
			rec.Value = gsol.Objective
			rec.Accepted = gsol.NumAccepted()
			rec.Feasible = solution.Check(inst.Sub, inst.Reqs, gsol) == nil
			if c.Certify {
				rec.Certified = c.certifyOne(inst, gsol, core.AccessControl, mapping, nil, nil)
			}
		}
		fmt.Fprintf(log, "flex=%3.0f seed=%2d greedy obj=%7.2f (opt %7.2f) time=%8.2fs\n",
			key.flex, key.seed, rec.Value, opt.Value, rec.Runtime.Seconds())
		return []Record{opt, rec}
	})
}

// Series is one plottable line: per x-value summary statistics over seeds.
type Series struct {
	Label     string
	X         []float64
	Summaries []stats.Summary
}

// collect groups values of records matching pred by flexibility.
func collect(records []Record, xs []float64, pred func(Record) bool, val func(Record) float64) (series []float64, sums []stats.Summary) {
	var out []stats.Summary
	for _, x := range xs {
		var sample []float64
		for _, r := range records {
			//lint:allow floateq -- FlexMin is copied verbatim from the config grid; bit-exact group key
			if r.FlexMin == x && pred(r) {
				sample = append(sample, val(r))
			}
		}
		out = append(out, stats.Summarize(sample))
	}
	return xs, out
}

// WriteSeries renders series as an aligned text table.
func WriteSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "# %s\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "## %s\n", s.Label)
		fmt.Fprintf(w, "%10s %12s %12s %12s %12s %12s %8s\n", "flex_min", "min", "q1", "median", "q3", "max", "n")
		for i, x := range s.X {
			sm := s.Summaries[i]
			fmt.Fprintf(w, "%10.0f %12.4g %12.4g %12.4g %12.4g %12.4g %8d\n",
				x, sm.Min, sm.Q1, sm.Median, sm.Q3, sm.Max, sm.N)
		}
	}
	fmt.Fprintln(w)
}
