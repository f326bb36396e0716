package admit

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// TestSteadyStateDecisionAllocs pins what one admission decision allocates
// once the engine's recycled storage has grown: the cΣ model is rebuilt
// and the engine's LP instance recompiled in place, and the branch and
// bound runs on that instance and recycles its node results and factor
// buffers through it, so the mean over a window of decisions stays far
// below the roughly 3,250 objects and 615 kB a decision cost when every
// decision built a fresh model and instance. What is left is mostly storage
// regrown after the instance's size rule dropped it (EXPERIMENTS.md,
// "Garbage-free branch and bound"). Measured with Go 1.24 on linux/amd64:
// 83 allocations and 35,574 bytes per decision over decisions 300–399 (87
// and 43,709 with -tags debugchecks), and 70 and 21,325 over decisions
// 300–349 in -short mode (72 and 26,411). The bounds leave at least 20%
// over the larger figure of each pair.
func TestSteadyStateDecisionAllocs(t *testing.T) {
	warm, window := 300, 100
	maxAllocs, maxBytes := 110.0, 58.0*1024
	if testing.Short() {
		window = 50
		maxAllocs, maxBytes = 92, 35*1024
	}
	sc := trace(t, warm+window, 3)
	eng, err := New(Config{Sub: sc.Substrate, Horizon: sc.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	admit := func(i int) {
		if _, err := eng.Admit(context.Background(), sc.Requests[i], sc.Mapping[i]); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
	}
	for i := 0; i < warm; i++ {
		admit(i)
	}
	// One goroutine, as testing.AllocsPerRun measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+window; i++ {
		admit(i)
	}
	runtime.ReadMemStats(&after)
	perDecision := float64(after.Mallocs-before.Mallocs) / float64(window)
	bytesPerDecision := float64(after.TotalAlloc-before.TotalAlloc) / float64(window)
	t.Logf("%.0f allocations, %.0f bytes per decision over decisions %d..%d",
		perDecision, bytesPerDecision, warm, warm+window-1)
	if perDecision > maxAllocs {
		t.Fatalf("a steady-state decision allocates %.0f objects on average, want at most %.0f", perDecision, maxAllocs)
	}
	if bytesPerDecision > maxBytes {
		t.Fatalf("a steady-state decision allocates %.0f bytes on average, want at most %.0f", bytesPerDecision, maxBytes)
	}
}

// cloneDecision deep-copies the fields of a decision that point into
// memory: a later decision that wrote into recycled storage it shares
// would show up as a difference from the copy.
func cloneDecision(d Decision) Decision {
	d.Hosts = append([]int(nil), d.Hosts...)
	d.Flows = cloneFlows(d.Flows)
	return d
}

func cloneFlows(f [][]float64) [][]float64 {
	if f == nil {
		return nil
	}
	out := make([][]float64, len(f))
	for i, row := range f {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

func cloneSnapshot(sol *solution.Solution, mapping vnet.NodeMapping) (*solution.Solution, vnet.NodeMapping) {
	cp := *sol
	cp.Accepted = append([]bool(nil), sol.Accepted...)
	cp.Start = append([]float64(nil), sol.Start...)
	cp.End = append([]float64(nil), sol.End...)
	cp.Hosts = make([][]int, len(sol.Hosts))
	cp.Flows = make([][][]float64, len(sol.Flows))
	for i := range sol.Hosts {
		cp.Hosts[i] = append([]int(nil), sol.Hosts[i]...)
		cp.Flows[i] = cloneFlows(sol.Flows[i])
	}
	mp := make(vnet.NodeMapping, len(mapping))
	for i := range mapping {
		mp[i] = append([]int(nil), mapping[i]...)
	}
	return &cp, mp
}

// sameDecision compares the committed fields of two decisions bit for bit.
func sameDecision(a, b Decision) bool {
	return a.Accepted == b.Accepted &&
		math.Float64bits(a.Start) == math.Float64bits(b.Start) &&
		math.Float64bits(a.End) == math.Float64bits(b.End) &&
		reflect.DeepEqual(a.Hosts, b.Hosts) && reflect.DeepEqual(a.Flows, b.Flows)
}

// TestRecycledStorageIsolation replays 400 requests and holds on to every
// returned decision and, at the end, to a snapshot; 50 more decisions then
// rebuild into the engine's recycled model and instance. Nothing held may
// change: no decision, committed flow or snapshot may point into storage a
// later decision reuses. The third configuration runs the rounding
// heuristic at every node, so the searches dive.
func TestRecycledStorageIsolation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Rounding: true, Certify: true, Seed: 9},
		{Certify: true, Solve: model.SolveOptions{HeuristicEvery: 1}},
	} {
		sc := trace(t, 450, 7)
		cfg.Sub, cfg.Horizon = sc.Substrate, sc.Horizon
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var held, copies []Decision
		admit := func(i int) {
			d, err := eng.Admit(context.Background(), sc.Requests[i], sc.Mapping[i])
			if err != nil {
				t.Fatalf("Admit(%d): %v", i, err)
			}
			held = append(held, d)
			copies = append(copies, cloneDecision(d))
		}
		for i := 0; i < 400; i++ {
			admit(i)
		}
		_, mapping, sol := eng.Snapshot()
		solCopy, mappingCopy := cloneSnapshot(sol, mapping)
		for i := 400; i < len(sc.Requests); i++ {
			admit(i)
		}
		for i, d := range held {
			if !sameDecision(d, copies[i]) {
				t.Fatalf("rounding=%v: decision %d changed after it was returned", cfg.Rounding, i)
			}
		}
		if !reflect.DeepEqual(sol, solCopy) || !reflect.DeepEqual(mapping, mappingCopy) {
			t.Fatalf("rounding=%v: the snapshot changed after later decisions", cfg.Rounding)
		}
		for i, d := range eng.Decisions() {
			if !sameDecision(d, copies[i]) {
				t.Fatalf("rounding=%v: the engine's record of decision %d differs from the decision it returned", cfg.Rounding, i)
			}
		}
	}
}

// countdownCtx is a context that reports cancellation from its (n+1)-th
// Err call on, so a decision is cancelled part way through its solves.
type countdownCtx struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) >= 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestCancelledDecisionLeavesNothing interleaves cancelled admissions into a
// stream: before some requests whose decisions need branch and bound, the
// engine first sees the same request under a context that cancels part way
// through its solves. A cancelled decision leaves its model and compiled LP
// in the recycled storage; every later decision must still equal that of
// an engine that never saw the cancelled ones, bit for bit, solver counters
// included.
func TestCancelledDecisionLeavesNothing(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 120
	}
	sc := trace(t, n, 3)
	ref := replay(t, sc, Config{}).Decisions()

	eng, err := New(Config{Sub: sc.Substrate, Horizon: sc.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	// A decision of five or more nodes makes at least seven context checks,
	// so every budget cancels it: at the first check, in the first nodes,
	// or a few nodes into the search.
	cancelled := 0
	budgets := []int64{0, 2, 5}
	for i, req := range sc.Requests {
		if ref[i].Stats.Tier == TierMIP && ref[i].Stats.Nodes >= 5 {
			ctx := newCountdown(budgets[cancelled%len(budgets)])
			if _, err := eng.Admit(ctx, req, sc.Mapping[i]); !errors.Is(err, context.Canceled) {
				t.Fatalf("request %d: the cancelled admission returned %v, want context.Canceled", i, err)
			}
			cancelled++
		}
		d, err := eng.Admit(context.Background(), req, sc.Mapping[i])
		if err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
		if got, want := trajectoryLine(d), trajectoryLine(ref[i]); got != want || !sameDecision(d, ref[i]) {
			t.Fatalf("decision %d after %d cancelled admissions:\n got  %s\n want %s", i, cancelled, got, want)
		}
	}
	if cancelled < len(budgets) {
		t.Fatalf("only %d admissions were cancelled; the trace no longer reaches branch and bound often enough", cancelled)
	}
	t.Logf("%d cancelled admissions left no trace in %d decisions", cancelled, n)
}
