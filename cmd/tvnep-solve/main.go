// Command tvnep-solve solves one TVNEP scenario (JSON, as produced by
// tvnep-gen) with a chosen formulation and objective through the public
// pkg/tvnep facade, verifies the result with the independent feasibility
// checker, and prints a report.
//
// Usage:
//
//	tvnep-solve -in scenario.json -model csigma -objective access
//	tvnep-solve -in scenario.json -model csigma -algorithm greedy
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"tvnep/internal/prof"
	"tvnep/pkg/tvnep"
)

func main() {
	var (
		in        = flag.String("in", "", "scenario JSON file (required)")
		modelName = flag.String("model", "csigma", "formulation: delta | sigma | csigma")
		objName   = flag.String("objective", "access", "objective: access | earliness | balance | disable | makespan")
		algoName  = flag.String("algorithm", "", "algorithm: exact | greedy | rounding (default exact)")
		seed      = flag.Int64("seed", 0, "seed for the randomized-rounding sampler (deterministic per seed)")
		limit     = flag.Duration("timelimit", time.Minute, "MIP time limit")
		cutMode   = flag.String("cutmode", "static", "Constraint-(20) precedence-cut pipeline, cΣ only: static (emit all rows at build time) | lazy (separate violated rows on demand) | off (drop the cut family)")
		flowMode  = flag.String("flowmode", "arc", "link-flow formulation, cΣ only: arc (per-link flow variables) | path (convexity rows + path columns priced on demand; requires the scenario's node mapping)")
		noPre     = flag.Bool("nopresolve", false, "disable the activity-interval presolve (applies to the cΣ model only)")
		freeMap   = flag.Bool("freemap", false, "ignore the scenario's fixed node mapping and let the model place nodes")
		doCertify = flag.Bool("certify", false, "run the full certificate suite (named violations, objective recomputation, root-LP optimality certificate)")
		timeline  = flag.Bool("timeline", false, "print the piecewise-constant substrate utilization timeline")
		progFlag  = flag.Bool("progress", false, "stream branch-and-bound progress (incumbents, node counts) to stderr")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer stopProfiles()
	// Ctrl-C cancels the solve cooperatively (status: cancelled).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fail(err)
	}
	var sc tvnep.Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		fail(err)
	}
	mapping := sc.Mapping
	if *freeMap {
		mapping = nil
	}

	var form tvnep.Formulation
	switch strings.ToLower(*modelName) {
	case "delta":
		form = tvnep.Delta
	case "sigma":
		form = tvnep.Sigma
	case "csigma":
		form = tvnep.CSigma
	default:
		fail(fmt.Errorf("unknown model %q", *modelName))
	}
	cm, err := tvnep.ParseCutMode(strings.ToLower(*cutMode))
	if err != nil {
		fail(err)
	}
	fm, err := tvnep.ParseFlowMode(strings.ToLower(*flowMode))
	if err != nil {
		fail(err)
	}
	if fm == tvnep.FlowPath && *freeMap {
		fail(fmt.Errorf("-flowmode path requires the scenario's fixed node mapping; drop -freemap"))
	}

	algo := tvnep.Exact
	switch strings.ToLower(*algoName) {
	case "", "exact":
	case "greedy":
		algo = tvnep.Greedy
	case "rounding":
		algo = tvnep.Rounding
	default:
		fail(fmt.Errorf("unknown algorithm %q (want exact, greedy or rounding)", *algoName))
	}

	var obj tvnep.Objective
	switch strings.ToLower(*objName) {
	case "access":
		obj = tvnep.AccessControl
	case "earliness":
		obj = tvnep.MaxEarliness
	case "balance":
		obj = tvnep.BalanceNodeLoad
	case "disable":
		obj = tvnep.DisableLinks
	case "makespan":
		obj = tvnep.MinMakespan
	default:
		fail(fmt.Errorf("unknown objective %q", *objName))
	}

	opts := []tvnep.Option{
		tvnep.WithFormulation(form),
		tvnep.WithObjective(obj),
		tvnep.WithHorizon(sc.Horizon),
		tvnep.WithTimeLimit(*limit),
	}
	// The cΣ-only variants, kept apart so that a conflict drops them alone.
	var variants []tvnep.Option
	if cm != tvnep.CutStatic {
		variants = append(variants, tvnep.WithCutMode(cm))
	}
	if fm != tvnep.FlowArc {
		variants = append(variants, tvnep.WithFlowMode(fm))
	}
	if *noPre {
		variants = append(variants, tvnep.WithoutPresolve())
	}
	if algo != tvnep.Exact {
		opts = append(opts, tvnep.WithAlgorithm(algo))
	}
	if algo == tvnep.Rounding {
		opts = append(opts, tvnep.WithSeed(*seed))
	}
	if *doCertify {
		opts = append(opts, tvnep.WithCertify())
	}
	if *progFlag {
		opts = append(opts, tvnep.WithProgress(func(p tvnep.Progress) {
			if p.NewIncumbent {
				fmt.Fprintf(os.Stderr, "  [b&b] incumbent %.4f (bound %.4f, gap %.3g, %d nodes, %v)\n",
					p.Incumbent, p.Bound, p.Gap, p.Nodes, p.Elapsed.Round(time.Millisecond))
			} else {
				fmt.Fprintf(os.Stderr, "  [b&b] %d nodes open=%d lp_iters=%d (%v)\n",
					p.Nodes, p.Open, p.LPIterations, p.Elapsed.Round(time.Millisecond))
			}
		}))
	}

	solver, err := tvnep.New(sc.Substrate, append(variants, opts...)...)
	// The facade reports cΣ-only variants on Δ/Σ as a typed configuration
	// error. Keep the CLI permissive: warn, drop the variants, retry.
	var conflict *tvnep.OptionConflictError
	if errors.As(err, &conflict) && len(variants) > 0 {
		fmt.Fprintf(os.Stderr, "tvnep-solve: warning: %v (ignoring it)\n", conflict)
		solver, err = tvnep.New(sc.Substrate, opts...)
	}
	if err != nil {
		fail(err)
	}

	start := time.Now()
	res, solveErr := solver.Solve(ctx, sc.Requests, mapping)
	elapsed := time.Since(start)
	if errors.Is(solveErr, tvnep.ErrNoSolution) {
		if m := res.ModelStats; m != nil {
			fmt.Printf("model: %v  objective: %v  vars=%d constrs=%d ints=%d\n",
				m.Formulation, m.Objective, m.Vars, m.Constrs, m.IntVars)
			fmt.Printf("status: %v  gap: %.4g  nodes: %d  lp-iterations: %d\n",
				res.Status, res.Gap, res.Nodes, res.LPIterations)
		}
		fmt.Println("no feasible solution found within the limits")
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}
	if solveErr != nil {
		fail(solveErr)
	}
	sol := res.Solution

	if gs := res.Greedy; gs != nil {
		fmt.Printf("algorithm: cΣ_A^G greedy (%d decisions: %d precheck, %d mip; %d B&B nodes, %d LP iterations)\n",
			gs.Decisions, gs.PrecheckTier, gs.MIPTier, gs.Nodes, gs.LPIterations)
	}
	if rs := res.Rounding; rs != nil {
		fmt.Printf("algorithm: randomized rounding (seed %d: %d samples, %d feasible, best #%d, %d repairs, %d repair-rejections)\n",
			*seed, rs.Samples, rs.Feasible, rs.BestSample, rs.Repairs, rs.Rejections)
		if rs.FellBack {
			fmt.Printf("rounding: fell back to exact branch-and-bound (%d nodes)\n", rs.Nodes)
		} else {
			fmt.Printf("rounding: LP bound %.4f, %d LP iterations, no fallback\n", rs.LPBound, rs.LPIterations)
		}
	}
	if m := res.ModelStats; m != nil {
		fmt.Printf("model: %v  objective: %v  vars=%d constrs=%d ints=%d\n",
			m.Formulation, m.Objective, m.Vars, m.Constrs, m.IntVars)
		if cm == tvnep.CutLazy && form == tvnep.CSigma {
			fmt.Printf("cuts: mode=lazy candidates=%d (rows deferred from the root LP)\n", m.CutCandidates)
			fmt.Printf("cuts: root_rows=%d separated=%d rounds=%d offered=%d pool_hits=%d evicted=%d\n",
				res.Cuts.RowsAtRoot, res.Cuts.SeparatedRows, res.Cuts.Rounds,
				res.Cuts.Offered, res.Cuts.PoolHits, res.Cuts.Evicted)
		}
		if fm == tvnep.FlowPath && form == tvnep.CSigma {
			fmt.Printf("columns: mode=path root_cols=%d priced=%d companion_cols=%d companion_rows=%d rounds=%d offered=%d pool_hits=%d evicted=%d\n",
				res.ColumnStats.ColsAtRoot, res.ColumnStats.PricedCols, res.ColumnStats.CompanionCols, res.ColumnStats.CompanionRows, res.ColumnStats.Rounds,
				res.ColumnStats.Offered, res.ColumnStats.PoolHits, res.ColumnStats.Evicted)
		}
		fmt.Printf("status: %v  gap: %.4g  nodes: %d  lp-iterations: %d\n",
			res.Status, res.Gap, res.Nodes, res.LPIterations)
	}
	if cert := res.Certificate; cert != nil {
		fmt.Printf("certificate: solution OK (recomputed objective %.6g)\n",
			cert.Solution.RecomputedObjective)
		if cert.Cuts != nil {
			fmt.Println("certificate: applied cuts OK (family membership + incumbent validity)")
		}
		if cert.Columns != nil {
			fmt.Println("certificate: priced columns OK (path validity + coefficient reconstruction)")
		}
		if cert.RootLP != nil {
			fmt.Printf("certificate: root LP OK (primal residual %.3g, dual residual %.3g, duality gap %.3g)\n",
				cert.RootLP.PrimalResidual, cert.RootLP.DualResidual, cert.RootLP.DualityGap)
		} else if cert.Cuts != nil {
			fmt.Println("certificate: root LP unproven (infeasible over the build's own columns until Farkas pricing)")
		}
	}
	fmt.Printf("runtime: %.3fs   objective: %.4f   accepted: %d/%d   verified: OK\n",
		elapsed.Seconds(), sol.Objective, sol.NumAccepted(), len(sc.Requests))
	for r, req := range sc.Requests {
		status := "rejected"
		if sol.Accepted[r] {
			status = "accepted"
		}
		fmt.Printf("  %-6s %-8s start=%7.3f end=%7.3f window=[%.3f, %.3f] d=%.3f\n",
			req.Name, status, sol.Start[r], sol.End[r], req.Earliest, req.Latest, req.Duration)
	}
	if *timeline {
		fmt.Println()
		tvnep.WriteTimeline(os.Stdout, sc.Substrate, sc.Requests, sol)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tvnep-solve:", err)
	os.Exit(1)
}
