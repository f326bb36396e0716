package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/round"
	"tvnep/internal/solution"
	"tvnep/pkg/tvnep"
)

// The offline batch. Part (a): exact cΣ solves with priced path columns and
// lazily separated cuts on seeded 12-PoP WAN substrates; their optimal
// objectives are stored in refs.go. Part (b): randomized rounding on the
// paper's 4×5 grid with 20 requests and 5-node stars. Both parts sweep the
// flexibility; the run seed drives the rounding samplers.
const (
	wanSeeds        = 12
	wanNodes        = 12
	wanAvgDeg       = 4
	wanRequests     = 5
	wanLeaves       = 1
	roundingScSeed  = 1
	offlineNodeLim  = 20000
	offlinePasses   = 4    // batch passes of an untraced run
	minOfflinePass  = 2    // passes made even past the time cap
	tailQOffline    = 0.9  // tail percentile reported for solve latency
	roundingEvery   = 13   // a rounding op follows every 12 exact ops
	offlineSetupOps = 1    // the first op of the batch belongs to set-up
	objTolAbs       = 1e-9 // absolute floor of the objective comparison
)

var offlineFlex = []float64{0, 1, 2, 3}

// offlineOp is one Solver.Solve call of the batch.
type offlineOp struct {
	name     string
	rounding bool
	sc       *tvnep.Scenario
	ref      float64 // reference optimum of an exact op (NaN for rounding)
	seed     int64   // rounding sampler seed
	solver   *tvnep.Solver
}

// wanScenario generates one exact-part scenario.
func wanScenario(seed int64, flex float64) *tvnep.Scenario {
	wl := tvnep.DefaultWorkload()
	wl.Topology = "wan"
	wl.WANNodes = wanNodes
	wl.WANAvgDeg = wanAvgDeg
	wl.NumRequests = wanRequests
	wl.StarLeaves = wanLeaves
	wl.FlexibilityHr = flex
	return tvnep.Generate(wl, seed)
}

// roundingScenario generates one rounding-part scenario.
func roundingScenario(flex float64) *tvnep.Scenario {
	wl := tvnep.PaperWorkload()
	wl.FlexibilityHr = flex
	return tvnep.Generate(wl, roundingScSeed)
}

func exactOptions() []tvnep.Option {
	return []tvnep.Option{
		tvnep.WithFlowMode(tvnep.FlowPath),
		tvnep.WithCutMode(tvnep.CutLazy),
		tvnep.WithCertify(),
		tvnep.WithNodeLimit(offlineNodeLim),
		tvnep.WithWorkers(1),
	}
}

func roundingOptions(seed int64) []tvnep.Option {
	return []tvnep.Option{
		tvnep.WithAlgorithm(tvnep.Rounding),
		tvnep.WithSeed(seed),
		tvnep.WithCertify(),
		tvnep.WithNodeLimit(offlineNodeLim),
		tvnep.WithWorkers(1),
	}
}

// offlineBatch generates the batch in its fixed order: the exact ops with
// one rounding op after every roundingEvery-1 of them, so a partial pass
// keeps the mix. Solvers are attached by attachSolvers.
func offlineBatch(seed int64) []*offlineOp {
	var exact []*offlineOp
	for s := int64(1); s <= wanSeeds; s++ {
		for _, f := range offlineFlex {
			name := wanName(s, f)
			exact = append(exact, &offlineOp{name: name, sc: wanScenario(s, f), ref: wanReference(name)})
		}
	}
	var ops []*offlineOp
	for k, f := range offlineFlex {
		lo := k * (roundingEvery - 1)
		ops = append(ops, exact[lo:lo+roundingEvery-1]...)
		ops = append(ops, &offlineOp{
			name: fmt.Sprintf("round-f%g", f), rounding: true, sc: roundingScenario(f),
			ref: math.NaN(), seed: round.MixSeed(seed, int64(k)),
		})
	}
	return append(ops, exact[len(offlineFlex)*(roundingEvery-1):]...)
}

func wanName(seed int64, flex float64) string { return fmt.Sprintf("wan-s%d-f%g", seed, flex) }

// attachSolvers constructs one solver per op (each WAN op has its own
// substrate).
func attachSolvers(ops []*offlineOp) error {
	for _, op := range ops {
		opts := exactOptions()
		if op.rounding {
			opts = roundingOptions(op.seed)
		}
		s, err := tvnep.New(op.sc.Substrate, opts...)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		op.solver = s
	}
	return nil
}

// solveRecord holds the deterministic outcome of one solve.
type solveRecord struct {
	status            tvnep.SolveStatus
	obj               float64
	nodes, lpIters    int
	accepted          int
	samples, feasible int
	repairs           int
	fellBack          bool
	bound             float64
	requests          int
	hasSolution       bool
}

func (r solveRecord) fields() []namedValue {
	return []namedValue{
		{"status", fmt.Sprint(r.status)},
		{"objective", strconv.FormatFloat(r.obj, 'g', -1, 64)},
		{"nodes", strconv.Itoa(r.nodes)},
		{"lp_iterations", strconv.Itoa(r.lpIters)},
		{"accepted", strconv.Itoa(r.accepted)},
		{"samples", strconv.Itoa(r.samples)},
		{"feasible_samples", strconv.Itoa(r.feasible)},
		{"repairs", strconv.Itoa(r.repairs)},
		{"fell_back", fmt.Sprint(r.fellBack)},
		{"lp_bound", strconv.FormatFloat(r.bound, 'g', -1, 64)},
	}
}

func recordOfResult(res *tvnep.Result) solveRecord {
	r := solveRecord{status: res.Status, nodes: res.Nodes, lpIters: res.LPIterations}
	if res.Solution != nil {
		r.hasSolution = true
		r.obj = res.Solution.Objective
		r.accepted = res.Solution.NumAccepted()
		r.requests = len(res.Solution.Accepted)
	}
	if rs := res.Rounding; rs != nil {
		r.samples, r.feasible, r.repairs, r.fellBack, r.bound = rs.Samples, rs.Feasible, rs.Repairs, rs.FellBack, rs.LPBound
	}
	return r
}

// checkSolve checks one solve: exact ops must be optimal at their stored
// reference objective, rounding ops certified (the facade certifies under
// WithCertify) and no better than their LP bound.
func checkSolve(op *offlineOp, i int, r solveRecord, err error) []failure {
	fail := func(format string, args ...interface{}) []failure {
		return []failure{{failSolve, i, op.name + ": " + fmt.Sprintf(format, args...)}}
	}
	switch {
	case err != nil:
		return fail("%v", err)
	case !r.hasSolution:
		return fail("no solution")
	case !op.rounding && r.status != tvnep.StatusOptimal:
		return fail("status %v, want optimal", r.status)
	case !op.rounding && !objEqual(r.obj, op.ref):
		return fail("objective %v, reference %v", r.obj, op.ref)
	case op.rounding && r.obj > r.bound+numtol.ObjTol*math.Max(1, math.Abs(r.bound)):
		return fail("objective %v above LP bound %v", r.obj, r.bound)
	}
	return nil
}

// objEqual compares objectives within numtol.ObjTol (relative).
func objEqual(a, b float64) bool {
	return math.Abs(a-b) <= numtol.ObjTol*math.Max(1, math.Abs(b))+objTolAbs
}

// passRun is the outcome of running ops in batch order.
type passRun struct {
	records []solveRecord
	times   []time.Duration
	cpus    []time.Duration
	fails   []failure
}

// solveOps runs the batch in order through Solver.Solve, wrapping around,
// from operation from up to maxOps, stopping early only past the deadline
// and with minOps done. The i-th solve of the run is operation i; repeats
// of a batch op must reproduce its first record.
func solveOps(ctx context.Context, ops []*offlineOp, from, minOps, maxOps int, deadline time.Time) passRun {
	var pr passRun
	first := map[int]solveRecord{}
	for i := from; i < maxOps; i++ {
		if i >= minOps && time.Now().After(deadline) {
			break
		}
		op := ops[i%len(ops)]
		c0, t0 := processCPU(), time.Now()
		res, err := op.solver.Solve(ctx, op.sc.Requests, op.sc.Mapping)
		pr.times = append(pr.times, time.Since(t0))
		pr.cpus = append(pr.cpus, processCPU()-c0)
		var r solveRecord
		if res != nil {
			r = recordOfResult(res)
		}
		pr.records = append(pr.records, r)
		pr.fails = append(pr.fails, checkSolve(op, i, r, err)...)
		if want, ok := first[i%len(ops)]; ok {
			pr.fails = append(pr.fails, compareFields(failDeterminism, i, want.fields(), r.fields())...)
		} else {
			first[i%len(ops)] = r
		}
	}
	return pr
}

// runOffline runs the solve-offline workload.
func runOffline(ctx context.Context, cfg runConfig) (*report, error) {
	ops := offlineBatch(cfg.seed)
	rep := &report{metrics: newMetricSet()}
	rep.env = append(rep.env, fmt.Sprintf("batch=%d", len(ops)),
		fmt.Sprintf("batch_mix=%d-exact-wan,%d-rounding-grid", len(ops)-len(offlineFlex), len(offlineFlex)),
		"load=sequential,1-worker")
	if cfg.traced {
		return rep, tracedOffline(ctx, cfg, ops, rep)
	}

	setups := make([]float64, 0, setupReps)
	var firstRun passRun
	for k := -1; k < setupReps; k++ {
		c0 := processCPU()
		if err := attachSolvers(ops); err != nil {
			return nil, err
		}
		firstRun = solveOps(ctx, ops, 0, offlineSetupOps, offlineSetupOps, time.Time{})
		if k >= 0 {
			setups = append(setups, (processCPU() - c0).Seconds())
		}
	}

	r0 := readRuntime()
	t0 := time.Now()
	run := solveOps(ctx, ops, offlineSetupOps, minOfflinePass*len(ops), offlinePasses*len(ops), t0.Add(capFactor*cfg.seconds))
	elapsed := time.Since(t0)
	r1 := readRuntime()
	heap := liveHeapMB()

	records := append(firstRun.records, run.records...)
	rep.attempted = len(records)
	rep.failures = append(rep.failures, firstRun.fails...)
	rep.failures = append(rep.failures, run.fails...)
	accFrac := 0.0
	for _, r := range records {
		accFrac += ratio(float64(r.accepted), float64(r.requests))
	}

	setTimings(rep, timings{
		op: "solve", cpus: run.cpus, walls: run.times, wall: elapsed, tailQ: tailQOffline,
		setups: setups, setupWhat: fmt.Sprintf("%d solvers and the first solve", len(ops)),
	})
	m := rep.metrics
	m.set("live_heap_mb", heap, "MiB", "after a final GC, batch and solvers live")
	m.set("ok_frac", 1-ratio(float64(rep.failedOps()), float64(rep.attempted)), "ratio", fmt.Sprintf("%d of %d failed", rep.failedOps(), rep.attempted))
	m.set("accept_rate", ratio(accFrac, float64(len(records))), "ratio", "mean share of requests embedded per solve")
	rep.env = append(rep.env, fmt.Sprintf("solves=%d", len(records)),
		fmt.Sprintf("gc_cpu_frac=%.4f", r0.to(r1).gcCPUFrac), "trace_overhead=n/a(untraced)")
	runtime.KeepAlive(ops)
	return rep, nil
}

// layerStats are the per-layer counters of one traced solve.
type layerStats struct {
	rounding                    bool
	cols, rows                  int
	nodes, lpIters, boundFlips  int
	optimal                     bool
	cutRows, cutOffered, cutHit int
	colsPriced, colRounds       int
	colHits                     int
	samples, feasible, repairs  int
	fellBack                    bool
	gap                         float64
}

// tracedSolve runs one op through the facade's own pipeline, one layer at
// a time, recording a span around each call. It mirrors Solver.Solve with
// the op's options exactly, so its record must equal the untraced one.
func tracedSolve(ctx context.Context, op *offlineOp, opID int, rec *recorder) (solveRecord, layerStats, error) {
	var ls layerStats
	root := rec.open("solve", opID, -1)
	defer rec.finish(root)
	step := func(name string, f func()) {
		id := rec.open(name, opID, root)
		f()
		rec.finish(id)
	}

	horizon := 0.0
	for _, r := range op.sc.Requests {
		horizon = math.Max(horizon, r.Latest)
	}
	inst := &tvnep.Instance{Sub: op.sc.Substrate, Reqs: op.sc.Requests, Horizon: horizon}
	if err := inst.Validate(); err != nil {
		return solveRecord{}, ls, err
	}
	solveOpts := model.SolveOptions{NodeLimit: offlineNodeLim, Workers: 1}
	certOpts := certify.Options{Objective: core.AccessControl, Mapping: op.sc.Mapping}
	certifySolution := func(sol *solution.Solution) error {
		var err error
		step("solution.check", func() { err = solution.Check(inst.Sub, inst.Reqs, sol) })
		if err != nil {
			return err
		}
		step("certify.solution", func() { err = certify.Solution(inst, sol, certOpts).Err() })
		return err
	}

	if op.rounding {
		ls.rounding = true
		solveOpts.Seed = op.seed
		var sol *solution.Solution
		var st round.Stats
		var err error
		step("round.solve", func() {
			sol, st, err = round.Solve(ctx, inst, op.sc.Mapping, round.Options{Seed: op.seed, Objective: core.AccessControl, Solve: solveOpts})
		})
		if err != nil {
			return solveRecord{}, ls, err
		}
		r := solveRecord{status: tvnep.StatusFeasible, nodes: st.FallbackNodes, lpIters: st.LPIterations,
			samples: st.Samples, feasible: st.Feasible, repairs: st.Repairs, fellBack: st.FellBack, bound: st.LPBound}
		ls.samples, ls.feasible, ls.repairs, ls.fellBack = st.Samples, st.Feasible, st.Repairs, st.FellBack
		if sol == nil {
			return r, ls, tvnep.ErrNoSolution
		}
		if sol.Optimal {
			r.status = tvnep.StatusOptimal
		}
		r.hasSolution, r.obj, r.accepted, r.requests = true, sol.Objective, sol.NumAccepted(), len(sol.Accepted)
		ls.gap = 1 - ratio(sol.Objective, st.LPBound)
		return r, ls, certifySolution(sol)
	}

	var b *core.Built
	step("core.build", func() {
		b = core.Build(core.CSigma, inst, core.BuildOptions{
			Objective: core.AccessControl, FixedMapping: op.sc.Mapping,
			CutMode: core.CutLazy, FlowMode: core.FlowPath,
		})
	})
	ls.cols, ls.rows = b.Model.NumVars(), b.Model.NumConstrs()
	var sol *solution.Solution
	var ms *model.Solution
	step("mip.search", func() { sol, ms = b.Solve(ctx, &solveOpts) })
	r := solveRecord{status: ms.Status, nodes: ms.Nodes, lpIters: ms.LPIterations}
	ls.nodes, ls.lpIters, ls.boundFlips, ls.optimal = ms.Nodes, ms.LPIterations, ms.BoundFlips, ms.Status == model.StatusOptimal
	ls.cutRows, ls.cutOffered, ls.cutHit = ms.Cuts.SeparatedRows, ms.Cuts.Offered, ms.Cuts.PoolHits
	ls.colsPriced, ls.colRounds, ls.colHits = ms.Columns.PricedCols, ms.Columns.Rounds, ms.Columns.PoolHits
	if sol == nil {
		return r, ls, tvnep.ErrNoSolution
	}
	r.hasSolution, r.obj, r.accepted, r.requests = true, sol.Objective, sol.NumAccepted(), len(sol.Accepted)
	if err := certifySolution(sol); err != nil {
		return r, ls, err
	}
	var err error
	step("certify.cuts", func() { err = certify.Cuts(b, ms).Err() })
	if err != nil {
		return r, ls, err
	}
	step("certify.columns", func() { err = certify.Columns(b, ms).Err() })
	if err != nil {
		return r, ls, err
	}
	lpp := b.Model.LP()
	var lpRes lp.Result
	step("lp.root", func() { lpRes = lp.Solve(lpp, nil) })
	step("certify.lp", func() { err = certify.LP(lpp, lpRes, 0).Err() })
	return r, ls, err
}

// tracedOffline is the traced run of solve-offline: every op is solved
// twice in turn, through Solver.Solve and through tracedSolve, alternating
// which goes first. Records must match exactly; the time ratio of the two
// is the tracing overhead.
func tracedOffline(ctx context.Context, cfg runConfig, ops []*offlineOp, rep *report) error {
	if err := attachSolvers(ops); err != nil {
		return err
	}
	rec := newRecorder()
	var stats []layerStats
	var plainTimes, tracedTimes []time.Duration
	var rt runtimeDelta
	var lpd lpDebug
	r0 := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < len(ops) || time.Now().Before(deadline); i++ {
		op := ops[i%len(ops)]
		var plain, traced solveRecord
		for turn := 0; turn < 2; turn++ {
			if (turn == 0) == (i%2 == 0) {
				a := readRuntime()
				t0 := time.Now()
				res, err := op.solver.Solve(ctx, op.sc.Requests, op.sc.Mapping)
				plainTimes = append(plainTimes, time.Since(t0))
				d := a.to(readRuntime())
				rt.allocs += d.allocs
				rt.allocBytes += d.allocBytes
				if res != nil {
					plain = recordOfResult(res)
				}
				if err != nil {
					rep.failures = append(rep.failures, checkSolve(op, i, plain, err)...)
				}
				continue
			}
			d0 := readLPDebug()
			t0 := time.Now()
			r, ls, err := tracedSolve(ctx, op, i, rec)
			tracedTimes = append(tracedTimes, time.Since(t0))
			lpd = lpd.plus(d0.to(readLPDebug()))
			stats = append(stats, ls)
			traced = r
			rep.failures = append(rep.failures, checkSolve(op, i, r, err)...)
		}
		rep.failures = append(rep.failures, compareFields(failFaithfulness, i, plain.fields(), traced.fields())...)
	}
	rt.gcCPUFrac = r0.to(readRuntime()).gcCPUFrac
	n := len(stats)
	rep.attempted = n

	spans := rec.snapshot()
	path, err := saveSpans(cfg, "solve-offline", rec)
	if err != nil {
		return err
	}
	overhead := ratio(sumDur(tracedTimes), sumDur(plainTimes)) - 1
	rep.env = append(rep.env, fmt.Sprintf("solves=%d", n), fmt.Sprintf("spans=%d", len(spans)),
		fmt.Sprintf("trace_overhead=%+.4f", overhead), "spans_file="+path)
	offlineLayers(rep.metrics, stats, spans, lpd, rt, float64(n), overhead)
	setWallLayers(rep.metrics, plainTimes, tailQOffline)
	runtime.KeepAlive(ops)
	return nil
}

// lpDebug is a snapshot of the LP layer's process-wide warm-start counters.
type lpDebug struct{ attempts, ok, handoffs, extensions int64 }

func readLPDebug() lpDebug {
	return lpDebug{lp.DebugWarmAttempts.Load(), lp.DebugWarmOK.Load(), lp.DebugFactorHandoffs.Load(), lp.DebugBasisExtensions.Load()}
}

func (a lpDebug) to(b lpDebug) lpDebug {
	return lpDebug{b.attempts - a.attempts, b.ok - a.ok, b.handoffs - a.handoffs, b.extensions - a.extensions}
}

func (a lpDebug) plus(b lpDebug) lpDebug {
	return lpDebug{a.attempts + b.attempts, a.ok + b.ok, a.handoffs + b.handoffs, a.extensions + b.extensions}
}

// offlineLayers sets the per-layer metrics of solve-offline from the traced
// phase: per exact solve for core, lp and mip, per rounding solve for
// round, and mean span self time per call for the timed layers.
func offlineLayers(m *metricSet, stats []layerStats, spans []span, lpd lpDebug, rt runtimeDelta, ops, overhead float64) {
	var ne, nr float64
	var cols, rows, nodes, iters, flips, optimal, cutRows, cutOffered, cutHit, priced, colRounds, colHits float64
	var samples, feasible, repairs, fellBack, gap float64
	for _, s := range stats {
		if s.rounding {
			nr++
			samples += float64(s.samples)
			feasible += float64(s.feasible)
			repairs += float64(s.repairs)
			gap += s.gap
			if s.fellBack {
				fellBack++
			}
			continue
		}
		ne++
		cols += float64(s.cols)
		rows += float64(s.rows)
		nodes += float64(s.nodes)
		iters += float64(s.lpIters)
		flips += float64(s.boundFlips)
		if s.optimal {
			optimal++
		}
		cutRows += float64(s.cutRows)
		cutOffered += float64(s.cutOffered)
		cutHit += float64(s.cutHit)
		priced += float64(s.colsPriced)
		colRounds += float64(s.colRounds)
		colHits += float64(s.colHits)
	}
	self, count := selfByName(spans)
	perExact := fmt.Sprintf("per exact solve, n=%.0f", ne)
	perRound := fmt.Sprintf("per rounding solve, n=%.0f", nr)
	m.set("core.build_ms", meanSelfMS(self, count, "core.build"), "ms", "span self time, "+perExact)
	m.set("core.cols", ratio(cols, ne), "count", "root model columns, "+perExact)
	m.set("core.rows", ratio(rows, ne), "count", "root model rows, "+perExact)
	m.set("lp.root_ms", meanSelfMS(self, count, "lp.root"), "ms", "root LP re-solve of the certificate, "+perExact)
	m.set("lp.iters_per_solve", ratio(iters, ne), "count", perExact)
	m.set("lp.bound_flips_per_solve", ratio(flips, ne), "count", perExact)
	m.set("lp.warm_ok_rate", ratio(float64(lpd.ok), float64(lpd.attempts)), "ratio", fmt.Sprintf("of %d warm starts in traced solves", lpd.attempts))
	m.set("lp.factor_handoff_rate", ratio(float64(lpd.handoffs), float64(lpd.attempts)), "ratio", "of warm starts in traced solves")
	m.set("lp.basis_extensions", ratio(float64(lpd.extensions), ops), "count", "per traced solve")
	m.set("mip.search_ms", meanSelfMS(self, count, "mip.search"), "ms", "span self time, "+perExact)
	m.set("mip.nodes_per_solve", ratio(nodes, ne), "count", perExact)
	m.set("mip.optimal_frac", ratio(optimal, ne), "ratio", perExact)
	m.set("mip.cut_rows_separated", ratio(cutRows, ne), "count", perExact)
	m.set("mip.cut_pool_hit_frac", ratio(cutHit, cutOffered), "ratio", "pool hits of offered cuts")
	m.set("mip.cols_priced", ratio(priced, ne), "count", perExact)
	m.set("mip.col_rounds", ratio(colRounds, ne), "count", perExact)
	m.set("mip.col_pool_hits", ratio(colHits, ne), "count", perExact)
	m.set("round.solve_ms", meanSelfMS(self, count, "round.solve"), "ms", "span self time, "+perRound)
	m.set("round.samples", ratio(samples, nr), "count", perRound)
	m.set("round.feasible_frac", ratio(feasible, samples), "ratio", "certified of drawn samples")
	m.set("round.repairs", ratio(repairs, nr), "count", perRound)
	m.set("round.fallback_frac", ratio(fellBack, nr), "ratio", perRound)
	m.set("round.gap", ratio(gap, nr), "ratio", "mean 1 - objective/LP bound, "+perRound)
	m.set("solution.check_ms", meanSelfMS(self, count, "solution.check"), "ms", "span self time, per solve")
	m.set("certify.solution_ms", meanSelfMS(self, count, "certify.solution"), "ms", "span self time, per solve")
	m.set("certify.cuts_ms", meanSelfMS(self, count, "certify.cuts"), "ms", "span self time, "+perExact)
	m.set("certify.columns_ms", meanSelfMS(self, count, "certify.columns"), "ms", "span self time, "+perExact)
	m.set("certify.lp_ms", meanSelfMS(self, count, "certify.lp"), "ms", "span self time, "+perExact)
	setRuntimeLayers(m, rt, ops, overhead)
}
