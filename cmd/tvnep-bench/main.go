// Command tvnep-bench regenerates the figures of the paper's computational
// evaluation (Section VI, Figures 3–9) as text series: for every temporal
// flexibility step it runs the configured scenarios and prints five-number
// summaries of runtime, optimality gap, accepted requests, greedy quality
// and objective improvement.
//
// Scenarios are solved concurrently on a bounded worker pool (-workers,
// default one worker per CPU); records and progress output keep the serial
// order regardless of the worker count, and the branch-and-bound search
// inside each scenario is serial. Ctrl-C cancels every in-flight solve cooperatively.
//
// Usage:
//
//	tvnep-bench                     # all figures, scaled-down default config
//	tvnep-bench -fig 3              # only Figure 3
//	tvnep-bench -seeds 8 -timelimit 60s
//	tvnep-bench -workers 4 -v       # four concurrent scenario solves
//	tvnep-bench -progress           # stream incumbent/node updates to stderr
//	tvnep-bench -paper              # the paper's exact (hour-per-solve!) setup
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/eval"
	"tvnep/internal/model"
	"tvnep/internal/prof"
	"tvnep/pkg/tvnep"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 3..9, 'ablation', 'relax', 'stream', 'rounding', or all")
		seeds     = flag.Int("seeds", 0, "number of scenario seeds per flexibility (0 → config default)")
		limit     = flag.Duration("timelimit", 0, "per-solve time limit (0 → config default)")
		workers   = flag.Int("workers", 0, "concurrent scenario solves (0 → one per CPU)")
		paper     = flag.Bool("paper", false, "use the paper's exact scale (very slow with this solver)")
		rows      = flag.Int("rows", 0, "substrate grid rows override")
		cols      = flag.Int("cols", 0, "substrate grid cols override")
		requests  = flag.Int("requests", 0, "requests per scenario override")
		flexList  = flag.String("flex", "", "comma-separated flexibility steps in minutes (default per config)")
		cutModeF  = flag.String("cutmode", "static", "Constraint-(20) cut pipeline for every cΣ solve of the sweep: static | lazy | off")
		flowModeF = flag.String("flowmode", "arc", "link-flow formulation for every cΣ solve of the sweep: arc | path (priced path columns)")
		certFlag  = flag.Bool("certify", false, "certify every sweep solution (solution certificate; for exact solves also the applied-cut, priced-column and root-LP certificates; every acceptance of a stream); exit non-zero on any violation")
		seedFlag  = flag.Int64("seed", 0, "base seed of the randomized rounding sweeps; sweeps are bit-identical per seed")
		verbose   = flag.Bool("v", false, "print per-solve progress")
		progFlag  = flag.Bool("progress", false, "stream branch-and-bound progress (incumbents, node counts) to stderr")
		jsonMode  = flag.Bool("json", false, "run the LP solver micro-benchmarks and write a machine-readable report instead of figures")
		jsonOut   = flag.String("o", "BENCH_lp.json", "output path of the -json report ('-' for stdout)")
		baseline  = flag.String("compare", "", "embed a previous -json report as baseline, compute speedups, and fail on any changed counter, >30% CPU time per op or >10% allocs/op or bytes/op")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *jsonMode {
		if err := runLPBench(*jsonOut, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			stopProfiles()
			os.Exit(1)
		}
		return
	}

	// Ctrl-C cancels the sweep cooperatively: every in-flight solve returns
	// with model.StatusCancelled and the summaries cover what finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := eval.Default()
	if *paper {
		cfg = eval.Paper()
	}
	if *seeds > 0 {
		cfg.Seeds = nil
		for s := 1; s <= *seeds; s++ {
			cfg.Seeds = append(cfg.Seeds, int64(s))
		}
	}
	if *limit > 0 {
		cfg.TimeLimit = *limit
	}
	cfg.Workers = *workers
	if *rows > 0 {
		cfg.Workload.GridRows = *rows
	}
	if *cols > 0 {
		cfg.Workload.GridCols = *cols
	}
	if *requests > 0 {
		cfg.Workload.NumRequests = *requests
	}
	if *flexList != "" {
		cfg.FlexMinutes = nil
		for _, tok := range strings.Split(*flexList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad -flex value:", err)
				os.Exit(2)
			}
			cfg.FlexMinutes = append(cfg.FlexMinutes, v)
		}
	}
	cfg.Certify = *certFlag
	cfg.Seed = *seedFlag
	cm, err := core.ParseCutMode(*cutModeF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvnep-bench:", err)
		os.Exit(2)
	}
	cfg.CutMode = cm
	fm, err := core.ParseFlowMode(*flowModeF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tvnep-bench:", err)
		os.Exit(2)
	}
	cfg.FlowMode = fm
	if *progFlag {
		// The callback fires from whichever worker goroutine owns the solve;
		// lines may interleave between concurrent solves but each line is
		// written in one call.
		cfg.Progress = func(p tvnep.Progress) {
			if p.NewIncumbent {
				fmt.Fprintf(os.Stderr, "  [b&b] incumbent %.4f (bound %.4f, gap %.3g, %d nodes, %v)\n",
					p.Incumbent, p.Bound, p.Gap, p.Nodes, p.Elapsed.Round(time.Millisecond))
			} else {
				fmt.Fprintf(os.Stderr, "  [b&b] %d nodes open=%d lp_iters=%d (%v)\n",
					p.Nodes, p.Open, p.LPIterations, p.Elapsed.Round(time.Millisecond))
			}
		}
	}

	var progress *os.File
	if *verbose {
		progress = os.Stderr
	}
	want := map[string]bool{}
	if *fig == "all" {
		for _, f := range []string{"3", "4", "5", "6", "7", "8", "9"} {
			want[f] = true
		}
	} else {
		want[*fig] = true
	}

	fmt.Printf("# tvnep-bench: grid %dx%d, %d requests, %d seeds, flex %v min, time limit %v, workers %d, cutmode %v, flowmode %v\n\n",
		cfg.Workload.GridRows, cfg.Workload.GridCols, cfg.Workload.NumRequests,
		len(cfg.Seeds), cfg.FlexMinutes, cfg.TimeLimit, *workers, cfg.CutMode, cfg.FlowMode)

	var tot totals
	start := time.Now()
	// Figures 3/4 need all three formulations; 8/9 only cΣ. Reuse records.
	if want["3"] || want["4"] {
		recs := cfg.AccessControlSweep(ctx, []core.Formulation{core.Delta, core.Sigma, core.CSigma}, progress)
		tot.add(recs...)
		if want["3"] {
			eval.WriteSeries(os.Stdout, "Figure 3 — runtime of the MIP formulations vs temporal flexibility (access control)", eval.Figure3(recs, cfg))
		}
		if want["4"] {
			eval.WriteSeries(os.Stdout, "Figure 4 — objective gap after the time limit vs temporal flexibility", eval.Figure4(recs, cfg))
		}
		if want["8"] {
			eval.WriteSeries(os.Stdout, "Figure 8 — number of requests embedded by the cΣ-Model", eval.Figure8(recs, cfg))
			want["8"] = false
		}
		if want["9"] {
			eval.WriteSeries(os.Stdout, "Figure 9 — relative improvement of the access-control objective vs flexibility 0", eval.Figure9(recs, cfg))
			want["9"] = false
		}
	}
	if want["5"] || want["6"] {
		recs := cfg.ObjectivesSweep(ctx, progress)
		tot.add(recs...)
		if want["5"] {
			eval.WriteSeries(os.Stdout, "Figure 5 — runtime of the cΣ-Model under the fixed-set objectives", eval.Figure5(recs, cfg))
		}
		if want["6"] {
			eval.WriteSeries(os.Stdout, "Figure 6 — gap of the cΣ-Model under the fixed-set objectives", eval.Figure6(recs, cfg))
		}
	}
	if want["7"] || want["8"] || want["9"] {
		recs := cfg.GreedySweep(ctx, progress)
		tot.add(recs...)
		if want["7"] {
			eval.WriteSeries(os.Stdout, "Figure 7 — relative performance of greedy cΣ_A^G vs the cΣ-Model", eval.Figure7(recs, cfg))
		}
		if want["8"] {
			eval.WriteSeries(os.Stdout, "Figure 8 — number of requests embedded by the cΣ-Model", eval.Figure8(recs, cfg))
		}
		if want["9"] {
			eval.WriteSeries(os.Stdout, "Figure 9 — relative improvement of the access-control objective vs flexibility 0", eval.Figure9(recs, cfg))
		}
	}
	if want["ablation"] {
		recs, err := cfg.AblationSweep(ctx, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			os.Exit(1)
		}
		for _, r := range recs {
			tot.add(r.Record)
		}
		eval.WriteAblation(os.Stdout, recs, cfg)
	}
	if want["relax"] {
		recs := cfg.RelaxationSweep(ctx, progress)
		for _, r := range recs {
			if r.Ref != nil {
				tot.add(*r.Ref)
			}
		}
		eval.WriteRelaxation(os.Stdout, recs, cfg)
	}
	if want["stream"] {
		recs, err := cfg.StreamSweep(ctx, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stream:", err)
			os.Exit(1)
		}
		for _, r := range recs {
			tot.addStream(r, cfg.Certify)
		}
		eval.WriteStreamTable(os.Stdout,
			"Streaming admission — per-decision latency and accept rate vs temporal flexibility", recs, cfg)
	}
	if want["rounding"] {
		recs := cfg.RoundingSweep(ctx, progress)
		tot.add(recs...)
		eval.WriteRoundingTable(os.Stdout, recs)
	}
	fmt.Printf("# aggregate: %v\n", tot)
	fmt.Printf("# total bench time: %v\n", time.Since(start).Round(time.Millisecond))
	if ctx.Err() != nil {
		fmt.Println("# sweep interrupted — summaries cover completed solves only")
		os.Exit(130)
	}
	if tot.certifyFailed > 0 {
		fmt.Fprintf(os.Stderr, "tvnep-bench: %d of %d certificates failed\n",
			tot.certifyFailed, tot.certified)
		os.Exit(1)
	}
}

// totals sums the solver activity of the records a run printed.
type totals struct {
	solves, optimal, cancelled int
	model.Work
	certified, certifyFailed int // certificates run, and failed
	cuts                     model.CutStats
}

func (t *totals) add(recs ...eval.Record) {
	for _, r := range recs {
		t.solves++
		if r.Optimal {
			t.optimal++
		}
		if r.Cancelled {
			t.cancelled++
		}
		t.Add(r.Work)
		if r.Certified || r.CertFailed {
			t.certified++
		}
		if r.CertFailed {
			t.certifyFailed++
		}
		t.cuts.RowsAtRoot += r.Cuts.RowsAtRoot
		t.cuts.SeparatedRows += r.Cuts.SeparatedRows
		t.cuts.Rounds += r.Cuts.Rounds
		t.cuts.Offered += r.Cuts.Offered
		t.cuts.PoolHits += r.Cuts.PoolHits
	}
}

// addStream counts a trace's model-backed decisions as solves and, under
// certification, its candidate acceptances as certificates: the engine
// certifies the acceptances it committed and the ones a failed certificate
// downgraded, never a rejection.
func (t *totals) addStream(r eval.StreamRecord, certify bool) {
	t.solves += r.MIPTier
	t.Add(r.Work)
	if certify {
		t.certified += r.Accepted + r.CertFailures
		t.certifyFailed += r.CertFailures
	}
}

// String renders the one-line summary.
func (t totals) String() string {
	s := fmt.Sprintf("solves=%d optimal=%d cancelled=%d nodes=%d lp_iters=%d",
		t.solves, t.optimal, t.cancelled, t.Nodes, t.LPIterations)
	if t.BoundFlips > 0 || t.RatioPasses > 0 {
		s += fmt.Sprintf(" bound_flips=%d ratio_passes=%d", t.BoundFlips, t.RatioPasses)
	}
	if t.certified > 0 {
		s += fmt.Sprintf(" certified=%d certify_failed=%d", t.certified, t.certifyFailed)
	}
	if c := t.cuts; c.Offered > 0 || c.SeparatedRows > 0 || c.Rounds > 0 {
		s += fmt.Sprintf(" cut_rows_root=%d cut_rows_separated=%d cut_rounds=%d cut_offered=%d cut_pool_hits=%d",
			c.RowsAtRoot, c.SeparatedRows, c.Rounds, c.Offered, c.PoolHits)
	}
	return s
}
