package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/round"
	"tvnep/internal/stats"
)

// StreamRecord is the outcome of replaying one scenario's arrival trace
// through the online admission engine (internal/admit): per-trace decision
// counts, tier usage and the latency distribution of the individual
// admission decisions.
type StreamRecord struct {
	FlexMin    float64
	Seed       int64
	Decisions  int
	Accepted   int
	AcceptRate float64
	// P50 and P99 are quantiles of the per-decision admission latency.
	P50, P99 time.Duration
	// Tier usage across the trace.
	Precheck, LPTier, MIPTier int
	CertFailures              int
	Runtime                   time.Duration
}

// streamResult is what one parallel trace replay hands back to the emitter.
type streamResult struct {
	rec StreamRecord
	err error
	log string
}

// StreamSweep replays every (flexibility, seed) scenario of the sweep grid
// as an online arrival trace: one fresh admission engine per scenario,
// requests streamed in arrival order (workload traces are generated with
// Earliest = arrival time, so sweep order is arrival order). Scenarios run
// concurrently on the worker pool; records and progress lines keep serial
// order, and each engine's decision sequence is deterministic, so the sweep
// output is bit-identical for every worker count as long as Config.Solve
// carries node-based limits.
//
//det:entry
func (c Config) StreamSweep(ctx context.Context, progress io.Writer) ([]StreamRecord, error) {
	keys := c.pairs()
	out := make([]StreamRecord, 0, len(keys))
	var firstErr error
	runOrdered(ctx, c.Workers, len(keys),
		func(ctx context.Context, i int) streamResult {
			var log strings.Builder
			rec, err := c.streamOne(ctx, keys[i].flex, keys[i].seed, &log)
			return streamResult{rec: rec, err: err, log: log.String()}
		},
		func(_ int, r streamResult) {
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			}
			out = append(out, r.rec)
			if progress != nil && r.log != "" {
				io.WriteString(progress, r.log)
			}
		})
	return out, firstErr
}

// streamOne replays one scenario through a fresh engine.
func (c Config) streamOne(ctx context.Context, flexMin float64, seed int64, log *strings.Builder) (StreamRecord, error) {
	inst, mapping := c.scenario(flexMin, seed)
	eng, err := admit.New(admit.Config{
		Sub:     inst.Sub,
		Horizon: inst.Horizon,
		Solve:   c.Solve,
		CutMode: c.CutMode,
		Seed:    round.MixSeed(c.Seed, seed, int64(math.Float64bits(flexMin))),
		Certify: c.Certify,
	})
	if err != nil {
		return StreamRecord{FlexMin: flexMin, Seed: seed}, err
	}
	start := time.Now() //lint:allow nondet -- stream runtime measurement; recorded, not branched on
	for r, req := range inst.Reqs {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		if _, err := eng.Admit(ctx, req, mapping[r]); err != nil {
			return StreamRecord{FlexMin: flexMin, Seed: seed}, fmt.Errorf("stream flex=%g seed=%d request %d: %w", flexMin, seed, r, err)
		}
	}
	es := eng.Stats()
	rec := StreamRecord{
		FlexMin:      flexMin,
		Seed:         seed,
		Decisions:    es.Decisions,
		Accepted:     es.Accepted,
		AcceptRate:   es.AcceptRate(),
		P50:          es.LatencyP50,
		P99:          es.LatencyP99,
		Precheck:     es.PrecheckTier,
		LPTier:       es.LPTier,
		MIPTier:      es.MIPTier,
		CertFailures: es.CertFailures,
		Runtime:      time.Since(start), //lint:allow nondet -- stream runtime measurement
	}
	if c.Counters != nil {
		c.Counters.Solves.Add(int64(es.LPTier + es.MIPTier))
		c.Counters.Nodes.Add(int64(es.TotalNodes))
		c.Counters.LPIters.Add(int64(es.TotalLPIters))
		if c.Certify {
			// The engine certifies candidate acceptances only: the ones it
			// committed and the ones a failed certificate downgraded.
			c.Counters.Certified.Add(int64(es.Accepted + es.CertFailures))
			c.Counters.CertifyFailed.Add(int64(es.CertFailures))
		}
	}
	fmt.Fprintf(log, "flex=%3.0f seed=%2d stream n=%d accept=%.2f p50=%s p99=%s tiers=%d/%d/%d\n",
		flexMin, seed, rec.Decisions, rec.AcceptRate,
		rec.P50.Round(time.Microsecond), rec.P99.Round(time.Microsecond),
		rec.Precheck, rec.LPTier, rec.MIPTier)
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
