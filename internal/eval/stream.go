package eval

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/stats"
	"tvnep/pkg/tvnep"
)

// StreamRecord is the outcome of replaying one scenario's arrival trace
// through the online admission engine (tvnep.Solver.Admit): per-trace
// decision counts, tier usage, solver work and the latency distribution of
// the individual admission decisions.
type StreamRecord struct {
	FlexMin    float64
	Seed       int64
	Decisions  int
	Accepted   int
	AcceptRate float64
	// P50 and P99 are quantiles of the per-decision admission latency.
	P50, P99 time.Duration
	// Tier usage across the trace.
	Precheck, MIPTier int
	CertFailures      int
	// Work totals the trace's branch-and-bound and simplex work.
	tvnep.Work
	Runtime time.Duration
}

// StreamSweep replays every (flexibility, seed) scenario of the sweep grid
// as an online arrival trace: one fresh admission engine per scenario,
// requests streamed in arrival order (workload traces are generated with
// Earliest = arrival time, so sweep order is arrival order). Scenarios run
// concurrently on the worker pool; records and progress lines keep serial
// order, and each engine's decision sequence is deterministic, so the sweep
// output is bit-identical for every worker count as long as no decision
// runs under a time limit (Config.TimeLimit 0 leaves the engine's node
// limit in charge).
//
//det:entry
func (c Config) StreamSweep(ctx context.Context, progress io.Writer) ([]StreamRecord, error) {
	return flatten(sweep(ctx, c, progress, func(ctx context.Context, key scenKey, log *strings.Builder) outcome[StreamRecord] {
		rec, err := c.streamOne(ctx, key, log)
		return outcome[StreamRecord]{[]StreamRecord{rec}, err}
	}))
}

// streamOne replays one scenario through a fresh solver's engine.
func (c Config) streamOne(ctx context.Context, key scenKey, log *strings.Builder) (StreamRecord, error) {
	inst, mapping := c.scenario(key.flex, key.seed)
	rec := StreamRecord{FlexMin: key.flex, Seed: key.seed}
	s, err := tvnep.New(inst.Sub, c.options(core.CSigma, inst.Horizon)...)
	if err != nil {
		return rec, err
	}
	start := time.Now() //lint:allow nondet -- stream runtime measurement; recorded, not branched on
	for r, req := range inst.Reqs {
		if ctx.Err() != nil {
			break
		}
		if _, err := s.Admit(ctx, req, mapping[r]); err != nil {
			return rec, fmt.Errorf("stream flex=%g seed=%d request %d: %w", key.flex, key.seed, r, err)
		}
	}
	es := s.EngineStats()
	rec.Decisions, rec.Accepted, rec.AcceptRate = es.Decisions, es.Accepted, es.AcceptRate()
	rec.P50, rec.P99 = es.LatencyP50, es.LatencyP99
	rec.Precheck, rec.MIPTier = es.PrecheckTier, es.MIPTier
	rec.CertFailures, rec.Work = es.CertFailures, es.Work
	rec.Runtime = time.Since(start) //lint:allow nondet -- stream runtime measurement
	fmt.Fprintf(log, "flex=%3.0f seed=%2d stream n=%d accept=%.2f p50=%s p99=%s tiers=%d/%d\n",
		key.flex, key.seed, rec.Decisions, rec.AcceptRate,
		rec.P50.Round(time.Microsecond), rec.P99.Round(time.Microsecond),
		rec.Precheck, rec.MIPTier)
	return rec, nil
}

// WriteStreamTable renders the streaming-throughput table: per flexibility
// step the mean accept rate across seeds, the median of the
// per-trace p50 latencies and the worst per-trace p99. The p99 column is the
// sweep's bounded-latency claim: it is the slowest percentile any seed
// experienced at that flexibility.
func WriteStreamTable(w io.Writer, title string, recs []StreamRecord, cfg Config) {
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "%10s %10s %12s %12s %12s %8s\n",
		"flex_min", "decisions", "accept_rate", "p50", "p99_max", "traces")
	for _, x := range cfg.FlexMinutes {
		var n, decisions int
		var acceptSum float64
		var p50s []float64
		var p99Max time.Duration
		for _, r := range recs {
			//lint:allow floateq -- FlexMin is copied verbatim from the config grid; bit-exact group key
			if r.FlexMin != x || r.Decisions == 0 {
				continue
			}
			n++
			decisions += r.Decisions
			acceptSum += r.AcceptRate
			p50s = append(p50s, float64(r.P50))
			if r.P99 > p99Max {
				p99Max = r.P99
			}
		}
		if n == 0 {
			continue
		}
		p50 := time.Duration(stats.Quantile(p50s, 0.5))
		fmt.Fprintf(w, "%10.0f %10d %12.3f %12s %12s %8d\n",
			x, decisions, acceptSum/float64(n),
			p50.Round(time.Microsecond), p99Max.Round(time.Microsecond), n)
	}
	fmt.Fprintln(w)
}
