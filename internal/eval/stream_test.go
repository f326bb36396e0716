package eval

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestStreamSweepDeterministic replays the same streaming sweep with one and
// four scenario workers and requires identical records and identical
// progress output (latency fields excepted — they are wall-clock).
func TestStreamSweepDeterministic(t *testing.T) {
	cfg := Default()
	cfg.FlexMinutes = []float64{0, 120}
	cfg.Seeds = []int64{1, 2}
	cfg.Workload.NumRequests = 6
	cfg.TimeLimit = 0 // the engine's default node limit keeps decisions deterministic
	cfg.Certify = true

	type key struct {
		flex                float64
		seed                int64
		decisions, accepted int
		precheck, mipTier   int
		certFailures        int
		nodes, lpIters      int
	}
	run := func(workers int) []key {
		c := cfg
		c.Workers = workers
		var log strings.Builder
		recs, err := c.StreamSweep(context.Background(), &log)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(recs) != len(cfg.FlexMinutes)*len(cfg.Seeds) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(recs), len(cfg.FlexMinutes)*len(cfg.Seeds))
		}
		out := make([]key, 0, len(recs))
		var decisions, certified, lpIters int
		for _, r := range recs {
			decisions += r.Decisions
			certified += r.Accepted + r.CertFailures
			lpIters += r.LPIterations
			if r.Decisions != cfg.Workload.NumRequests {
				t.Errorf("workers=%d flex=%g seed=%d: %d decisions, want %d",
					workers, r.FlexMin, r.Seed, r.Decisions, cfg.Workload.NumRequests)
			}
			if r.CertFailures != 0 {
				t.Errorf("workers=%d flex=%g seed=%d: %d certificate failures", workers, r.FlexMin, r.Seed, r.CertFailures)
			}
			if r.Decisions > 0 && (r.P50 <= 0 || r.P99 < r.P50) {
				t.Errorf("workers=%d flex=%g seed=%d: implausible latency quantiles p50=%v p99=%v",
					workers, r.FlexMin, r.Seed, r.P50, r.P99)
			}
			out = append(out, key{r.FlexMin, r.Seed, r.Decisions, r.Accepted,
				r.Precheck, r.MIPTier, r.CertFailures, r.Nodes, r.LPIterations})
		}
		// Only candidate acceptances are certified, never a rejection.
		if certified >= decisions {
			t.Errorf("workers=%d: %d accepted or downgraded of %d decisions, want some rejections",
				workers, certified, decisions)
		}
		if lpIters <= 0 {
			t.Errorf("workers=%d: no LP iterations recorded", workers)
		}
		return out
	}

	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("record %d diverges across worker counts: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

// TestWriteStreamTable smoke-tests the table renderer.
func TestWriteStreamTable(t *testing.T) {
	recs := []StreamRecord{
		{FlexMin: 0, Seed: 1, Decisions: 5, Accepted: 3, AcceptRate: 0.6,
			P50: time.Millisecond, P99: 3 * time.Millisecond},
		{FlexMin: 0, Seed: 2, Decisions: 5, Accepted: 4, AcceptRate: 0.8,
			P50: 2 * time.Millisecond, P99: 5 * time.Millisecond},
	}
	cfg := Default()
	cfg.FlexMinutes = []float64{0}
	var sb strings.Builder
	WriteStreamTable(&sb, "test", recs, cfg)
	out := sb.String()
	for _, want := range []string{"accept_rate", "0.700", "5ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
