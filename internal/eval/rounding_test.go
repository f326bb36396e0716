package eval

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRoundingSweepDeterminism extends the worker-pool determinism
// contract to the randomized tier: at a fixed Config.Seed the rounding
// sweep must produce identical records — same accept counts, objectives,
// gaps and fallback flags, in the same order — for every worker count and
// across repeated runs. The per-scenario seeds derive from Config.Seed via
// round.MixSeed, so nothing may depend on scheduling.
func TestRoundingSweepDeterminism(t *testing.T) {
	run := func(workers int) ([]Record, string) {
		cfg := micro()
		cfg.Seed = 17
		cfg.Solve.TimeLimit = time.Hour
		cfg.Workers = workers
		var buf bytes.Buffer
		recs := cfg.RoundingSweep(context.Background(), &buf)
		return zeroRuntimes(recs), stripTimes(buf.String())
	}
	refRecs, refLog := run(1)
	if len(refRecs) != 2*len(micro().pairs()) {
		t.Fatalf("%d records, want an exact+rounding pair per scenario (%d)", len(refRecs), 2*len(micro().pairs()))
	}
	rounded := 0
	for _, r := range refRecs {
		if r.Algo == "rounding" && r.Feasible {
			rounded++
		}
	}
	if rounded == 0 {
		t.Fatal("no feasible rounding records; the sweep lost its coverage")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		recs, log := run(workers)
		if !reflect.DeepEqual(refRecs, recs) {
			t.Fatalf("records differ between 1 and %d workers:\nref: %+v\ngot: %+v", workers, refRecs, recs)
		}
		if log != refLog {
			t.Fatalf("progress output differs between 1 and %d workers:\nref:\n%s\ngot:\n%s", workers, refLog, log)
		}
	}
	// A different base seed must be allowed to make different random
	// choices, but still produce one exact+rounding pair per scenario.
	other := func() []Record {
		cfg := micro()
		cfg.Seed = 18
		cfg.Solve.TimeLimit = time.Hour
		return zeroRuntimes(cfg.RoundingSweep(context.Background(), nil))
	}()
	if len(other) != len(refRecs) {
		t.Fatalf("seed 18 produced %d records, want %d", len(other), len(refRecs))
	}
}

// TestWriteRoundingTable smoke-checks the table renderer over a real
// micro sweep: one row per flexibility step, finite medians.
func TestWriteRoundingTable(t *testing.T) {
	cfg := micro()
	cfg.Certify = true
	cfg.Counters = &Counters{}
	recs := cfg.RoundingSweep(context.Background(), nil)
	for _, r := range recs {
		if r.Algo == "rounding" && r.Feasible && !r.Certified {
			t.Fatalf("flex=%v seed=%d: feasible rounding record not certified", r.FlexMin, r.Seed)
		}
	}
	var buf bytes.Buffer
	WriteRoundingTable(&buf, recs)
	out := buf.String()
	if !strings.Contains(out, "obj_ratio") || !strings.Contains(out, "fallback") {
		t.Fatalf("table missing columns:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 0 && line[0] == ' ' && !strings.Contains(line, "flex_min") {
			rows++
		}
	}
	if rows != len(cfg.FlexMinutes) {
		t.Fatalf("%d table rows, want one per flexibility step (%d):\n%s", rows, len(cfg.FlexMinutes), out)
	}
}
