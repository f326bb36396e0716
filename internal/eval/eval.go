// Package eval is the computational-evaluation harness of Section VI: it
// sweeps temporal flexibility over a family of random scenarios and records,
// per (flexibility, seed, algorithm), the solve statistics from which every
// figure of the paper (Figures 3–9) is regenerated.
//
// Sweeps are embarrassingly parallel across (flexibility, seed) scenarios:
// every sweep fans its scenarios out over a bounded worker pool
// (Config.Workers, default runtime.NumCPU()) while emitting records and
// progress lines in exactly the order a serial run would produce — results
// are handed back in scenario order, so output is deterministic and
// independent of the worker count. Cancelling the context stops every
// in-flight solve cooperatively.
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/stats"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// Config drives a sweep. Every solve of a sweep runs through the pkg/tvnep
// facade, which lowers these settings onto its functional options.
type Config struct {
	Workload workload.Config
	// FlexMinutes is the x-axis of every figure: the scheduling slack (in
	// "minutes" of scenario time, 60 min = 1 h) granted to every request.
	FlexMinutes []float64
	// Seeds identifies the independent scenarios per flexibility step
	// (the paper uses 24).
	Seeds []int64
	// TimeLimit bounds every solve of the sweep, and every decision of an
	// admission stream (the paper uses one hour; 0 → none, and streams fall
	// back to the engine's node limit).
	TimeLimit time.Duration
	// Progress, when non-nil, receives every solve's branch-and-bound
	// progress. It runs on the worker goroutine that owns the solve.
	Progress func(tvnep.Progress)
	// Workers bounds the number of scenarios solved concurrently (≤ 0
	// means runtime.NumCPU()).
	Workers int
	// Certify runs every solve under tvnep.WithCertify: the solution
	// certificate (capacities at every event interval, flow conservation,
	// objective recomputation) and, for exact solves, the applied-cut,
	// priced-column and root-LP certificates; admission streams certify
	// every acceptance. Records carry the verdicts.
	Certify bool
	// CutMode selects the Constraint-(20) pipeline for every cΣ build of the
	// sweep: static emission (default), lazy separation, or off. Δ/Σ builds
	// have no such variant.
	CutMode core.CutMode
	// FlowMode selects arc-based (default) or path-based link flows for
	// every exact cΣ solve of the sweep; path mode prices path columns on
	// demand. Δ/Σ builds have no such variant, and greedy, rounding and
	// admission decide on arc flows.
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
		TimeLimit:   60 * time.Second,
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
		TimeLimit:   time.Hour,
	}
}

// Record is one solve outcome.
type Record struct {
	FlexMin  float64
	Seed     int64
	Form     core.Formulation
	Obj      core.Objective
	Algo     string // "mip", "greedy" or "rounding"
	Runtime  time.Duration
	Gap      float64 // relative branch-and-bound gap; +Inf if no solution
	Value    float64 // objective value achieved (0 if none)
	Accepted int
	Optimal  bool
	Feasible bool // independent checker verdict (false when no solution)
	// Certified is the certificate verdict (only set when Config.Certify
	// is); CertFailed reports a solution that the checker or a certificate
	// rejected.
	Certified  bool
	CertFailed bool
	// Cancelled reports a solve that the context stopped.
	Cancelled bool
	// Work counts the solver's work and Cuts the lazy separation's.
	tvnep.Work
	Cuts model.CutStats
	// FellBack reports that a rounding solve exhausted its samples and ran
	// the exact branch-and-bound fallback (rounding records only).
	FellBack bool
}

// scenKey identifies one scenario of the sweep grid.
type scenKey struct {
	flex float64
	seed int64
}

// record starts the Record of one solve of the scenario.
func (k scenKey) record(f core.Formulation, obj core.Objective, algo string) Record {
	return Record{FlexMin: k.flex, Seed: k.seed, Form: f, Obj: obj, Algo: algo}
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

// options lowers the sweep configuration onto the facade options every
// solver of the sweep shares. The cut and flow modes are cΣ variants, so
// they apply to cΣ solvers only.
func (c Config) options(f core.Formulation, horizon float64) []tvnep.Option {
	opts := []tvnep.Option{
		tvnep.WithFormulation(f),
		tvnep.WithHorizon(horizon),
		tvnep.WithTimeLimit(c.TimeLimit),
		tvnep.WithProgress(c.Progress),
	}
	if f == core.CSigma {
		opts = append(opts, tvnep.WithCutMode(c.CutMode), tvnep.WithFlowMode(c.FlowMode))
	}
	if c.Certify {
		opts = append(opts, tvnep.WithCertify())
	}
	return opts
}

// solve runs one solve of the instance through the facade and fills rec,
// whose scenario key, formulation, objective and algorithm the caller set.
// opts follow the sweep's own options, so a variant's settings win. A
// certificate failure is also reported on stderr, so a failing sweep names
// the defect even when a figure's aggregation hides the record. The result
// is nil when the solve returned no statistics: a certificate failed, or
// the context was cancelled before the solve or stopped a heuristic one.
func (c Config) solve(ctx context.Context, inst *core.Instance, mapping vnet.NodeMapping,
	rec Record, opts ...tvnep.Option) (Record, *tvnep.Result) {
	all := append(c.options(rec.Form, inst.Horizon), tvnep.WithObjective(rec.Obj))
	s, err := tvnep.New(inst.Sub, append(all, opts...)...)
	if err != nil {
		panic(fmt.Sprintf("eval: sweep options rejected: %v", err))
	}
	res, err := s.Solve(ctx, inst.Reqs, mapping)
	rec.Gap = math.Inf(1)
	if res != nil {
		rec.Runtime, rec.Gap, rec.Optimal = res.Runtime, res.Gap, res.Status == tvnep.StatusOptimal
		rec.Work, rec.Cuts = res.Work, res.Cuts
		if res.Rounding != nil {
			rec.FellBack = res.Rounding.FellBack
		}
	}
	var certErr *tvnep.CertificationError
	switch {
	case err == nil:
		rec.Value, rec.Accepted = res.Solution.Objective, res.Solution.NumAccepted()
		rec.Feasible, rec.Certified = true, c.Certify
	case errors.As(err, &certErr):
		rec.CertFailed = true
		fmt.Fprintf(os.Stderr, "eval: %v %s solve at flex=%v seed=%d: %v\n", rec.Obj, rec.Algo, rec.FlexMin, rec.Seed, err)
	case ctx.Err() != nil:
		rec.Cancelled = true
	}
	return rec, res
}

// sweep runs body once per (flexibility, seed) scenario on the worker pool
// and returns the results in scenario order, writing each scenario's
// progress text to progress (when non-nil) exactly as a serial run would.
func sweep[T any](ctx context.Context, c Config, progress io.Writer,
	body func(ctx context.Context, key scenKey, log *strings.Builder) T) []T {
	type result struct {
		val T
		log string
	}
	keys := c.pairs()
	out := make([]T, 0, len(keys))
	runOrdered(ctx, c.Workers, len(keys),
		func(ctx context.Context, i int) result {
			var log strings.Builder
			val := body(ctx, keys[i], &log)
			return result{val, log.String()}
		},
		func(_ int, r result) {
			out = append(out, r.val)
			if progress != nil && r.log != "" {
				io.WriteString(progress, r.log)
			}
		})
	return out
}

// outcome is one scenario's records and the error that ended it, if any.
type outcome[R any] struct {
	recs []R
	err  error
}

// flatten concatenates outcomes in scenario order and returns the first
// error among them.
func flatten[R any](outs []outcome[R]) ([]R, error) {
	var recs []R
	var first error
	for _, o := range outs {
		recs = append(recs, o.recs...)
		if first == nil {
			first = o.err
		}
	}
	return recs, first
}

// AccessControlSweep solves every (flexibility, seed) scenario under the
// access-control objective with each formulation. It yields the data behind
// Figures 3, 4, 8 and 9. Scenarios run concurrently (Config.Workers);
// records and progress lines keep serial order.
//
//det:entry
func (c Config) AccessControlSweep(ctx context.Context, forms []core.Formulation, progress io.Writer) []Record {
	return slices.Concat(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		recs := make([]Record, 0, len(forms))
		for _, f := range forms {
			rec, _ := c.solve(ctx, inst, mapping, key.record(f, core.AccessControl, "mip"))
			recs = append(recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d %-2v obj=%7.2f gap=%6.3g time=%8.2fs nodes=%d\n",
				key.flex, key.seed, f, rec.Value, rec.Gap, rec.Runtime.Seconds(), rec.Nodes)
		}
		return recs
	})...)
}

// ObjectivesSweep runs the cΣ-Model under the three fixed-set objectives of
// Section IV-E (earliness, node-load balance, link disabling) for every
// scenario, embedding the request set accepted by an access-control
// pre-pass (the paper's Figure 8 reports exactly that set size). Data for
// Figures 5 and 6.
//
//det:entry
func (c Config) ObjectivesSweep(ctx context.Context, progress io.Writer) []Record {
	return slices.Concat(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		pre, res := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "mip"))
		if pre.CertFailed {
			return []Record{pre} // the failure must reach the caller; figures 5/6 skip it
		}
		if !pre.Feasible {
			return nil
		}
		// Restrict to the accepted set.
		var reqs []*vnet.Request
		var subMap vnet.NodeMapping
		for r, acc := range res.Solution.Accepted {
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
			rec, _ := c.solve(ctx, sub, subMap, key.record(core.CSigma, obj, "mip"))
			rec.Accepted = len(reqs)
			recs = append(recs, rec)
			fmt.Fprintf(log, "flex=%3.0f seed=%2d cΣ %-18v obj=%7.2f gap=%6.3g time=%8.2fs\n",
				key.flex, key.seed, rec.Obj, rec.Value, rec.Gap, rec.Runtime.Seconds())
		}
		return recs
	})...)
}

// GreedySweep runs cΣ_A^G and the optimal cΣ-Model side by side on every
// scenario (Figure 7 reports the relative performance).
//
//det:entry
func (c Config) GreedySweep(ctx context.Context, progress io.Writer) []Record {
	return slices.Concat(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) []Record {
		inst, mapping := c.scenario(key.flex, key.seed)
		opt, _ := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "mip"))
		rec, _ := c.solve(ctx, inst, mapping, key.record(core.CSigma, core.AccessControl, "greedy"),
			tvnep.WithAlgorithm(tvnep.Greedy))
		fmt.Fprintf(log, "flex=%3.0f seed=%2d greedy obj=%7.2f (opt %7.2f) time=%8.2fs\n",
			key.flex, key.seed, rec.Value, opt.Value, rec.Runtime.Seconds())
		return []Record{opt, rec}
	})...)
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
