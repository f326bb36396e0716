package eval

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"testing"
	"time"

	"tvnep/internal/core"
)

// stripTimes removes the wall-clock fields from progress output so runs can
// be compared; everything else (ordering, values, node counts) must match.
var timeField = regexp.MustCompile(`time=\s*[0-9.]+s`)

func stripTimes(s string) string { return timeField.ReplaceAllString(s, "time=X") }

// zeroRuntimes clears the only nondeterministic Record field.
func zeroRuntimes(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		out[i].Runtime = 0
	}
	return out
}

// TestParallelSweepDeterminism is the determinism contract of the worker
// pool: a sweep at ANY worker count must produce exactly the records — same
// values, same order — as the serial sweep, and the progress stream must
// match line for line (modulo wall-clock times). Bit-for-bit reproducibility
// of the solver (simplex pivots, Devex weights, equilibration, warm
// starts) is load-bearing here: any worker-count-dependent float would show
// up as a record mismatch.
func TestParallelSweepDeterminism(t *testing.T) {
	// cΣ only: the Σ-Model is ~50× slower under the race detector and adds
	// no pool coverage (ordering is exercised per scenario either way).
	forms := []core.Formulation{core.CSigma}
	run := func(workers int) ([]Record, []Record, string) {
		cfg := micro()
		// The branch-and-bound is deterministic as long as no solve hits its
		// wall-clock limit, so give it one no micro instance can reach (the
		// race detector slows solves ~10×; a tight limit would make Optimal
		// itself timing-dependent).
		cfg.TimeLimit = time.Hour
		cfg.Workers = workers
		var buf bytes.Buffer
		ac := cfg.AccessControlSweep(context.Background(), forms, &buf)
		gr := cfg.GreedySweep(context.Background(), nil)
		return zeroRuntimes(ac), zeroRuntimes(gr), stripTimes(buf.String())
	}
	acSerial, grSerial, logSerial := run(1)
	// 2 and 3 exercise partial pools (oversubscribed queue, uneven stealing);
	// 4 and 7 exceed the micro scenario count, so some workers sit idle.
	for _, workers := range []int{2, 3, 4, 7} {
		acPar, grPar, logPar := run(workers)
		if !reflect.DeepEqual(acSerial, acPar) {
			t.Fatalf("access-control records differ between 1 and %d workers:\nserial: %+v\nparallel: %+v", workers, acSerial, acPar)
		}
		if !reflect.DeepEqual(grSerial, grPar) {
			t.Fatalf("greedy records differ between 1 and %d workers:\nserial: %+v\nparallel: %+v", workers, grSerial, grPar)
		}
		if logSerial != logPar {
			t.Fatalf("progress output differs between 1 and %d workers:\nserial:\n%s\nparallel:\n%s", workers, logSerial, logPar)
		}
	}
}

// TestRunOrderedEmitsInOrder drives the pool with out-of-order completion
// (earlier items sleep longer) and verifies emission stays sequential.
func TestRunOrderedEmitsInOrder(t *testing.T) {
	const n = 40
	var got []int
	runOrdered(context.Background(), 8, n,
		func(_ context.Context, i int) int {
			time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
			return i * i
		},
		func(i, v int) {
			if v != i*i {
				t.Errorf("item %d: got %d, want %d", i, v, i*i)
			}
			got = append(got, i)
		})
	for i, v := range got {
		if v != i {
			t.Fatalf("emission order %v not sequential", got)
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d items, want %d", len(got), n)
	}
}

// TestCountersAccumulate checks the per-record solver counters, which
// tvnep-bench sums into its aggregate line, under a parallel sweep: one
// record per solve, each proven optimal and carrying its simplex work.
func TestCountersAccumulate(t *testing.T) {
	cfg := micro()
	cfg.Workers = 4
	recs := cfg.AccessControlSweep(context.Background(), []core.Formulation{core.CSigma}, nil)
	if got, want := len(recs), len(cfg.pairs()); got != want {
		t.Fatalf("%d records, want one solve per scenario (%d)", got, want)
	}
	lpIters := 0
	for _, r := range recs {
		if !r.Optimal || r.Cancelled {
			t.Fatalf("micro sweep should solve everything to optimality: %+v", r)
		}
		if r.LPIterations <= 0 {
			t.Fatalf("flex=%v seed=%d: no LP iterations recorded: %+v", r.FlexMin, r.Seed, r)
		}
		lpIters += r.LPIterations
	}
	if lpIters <= 0 {
		t.Fatal("no LP iterations recorded")
	}
}

// TestSweepCancellation cancels a sweep up front: it must return promptly
// and count every attempted solve as cancelled rather than optimal.
func TestSweepCancellation(t *testing.T) {
	cfg := micro()
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs := cfg.AccessControlSweep(ctx, []core.Formulation{core.CSigma}, nil)
	if len(recs) != len(cfg.pairs()) {
		t.Fatalf("%d records, want one per scenario (%d)", len(recs), len(cfg.pairs()))
	}
	for _, r := range recs {
		if r.Optimal {
			t.Fatalf("flex=%v seed=%d reported optimal under a cancelled context", r.FlexMin, r.Seed)
		}
		if !r.Cancelled {
			t.Fatalf("flex=%v seed=%d not marked cancelled: %+v", r.FlexMin, r.Seed, r)
		}
	}
}
