package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"tvnep/internal/lp"
)

// randKnapsack builds a randomized 0/1 knapsack with n items; eq adds an
// equality cardinality row, which makes the search burn far more nodes and
// produce a long chain of improving incumbents.
func randKnapsack(seed int64, n int, capacity float64, eq bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	var idx []int32
	var val, ones []float64
	for j := 0; j < n; j++ {
		c := p.AddCol(rng.Float64()*10, 0, 1, "")
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*4)
		ones = append(ones, 1)
	}
	p.AddLE(idx, val, capacity, "cap")
	if eq {
		p.AddEQ(idx, ones, math.Floor(float64(n)/3), "card")
	}
	mp := NewProblem(p)
	for j := 0; j < n; j++ {
		mp.SetInteger(j)
	}
	return mp
}

// multiKnapsack builds a randomized multidimensional 0/1 knapsack: m
// correlated capacity rows make the LP bound loose, so the search has to
// explore a deep tree (thousands of nodes) — the profile the parallel
// engine is built for.
func multiKnapsack(seed int64, n, m int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	var idx []int32
	for j := 0; j < n; j++ {
		c := p.AddCol(1+rng.Float64()*10, 0, 1, "")
		idx = append(idx, int32(c))
	}
	for i := 0; i < m; i++ {
		val := make([]float64, n)
		tot := 0.0
		for j := range val {
			val[j] = rng.Float64() * 10
			tot += val[j]
		}
		p.AddLE(idx, val, tot*0.3, "")
	}
	mp := NewProblem(p)
	for j := 0; j < n; j++ {
		mp.SetInteger(j)
	}
	return mp
}

// assertBitIdentical fails the test unless the two results agree bit for
// bit on every deterministic field (WastedLPIterations and Runtime are the
// only fields allowed to differ between worker counts).
func assertBitIdentical(t *testing.T, name string, base, got Result, baseW, gotW int) {
	t.Helper()
	if got.Status != base.Status {
		t.Errorf("%s: status differs between %d and %d workers: %v vs %v", name, baseW, gotW, base.Status, got.Status)
	}
	if got.HasSolution != base.HasSolution {
		t.Errorf("%s: HasSolution differs between %d and %d workers", name, baseW, gotW)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(base.Obj) {
		t.Errorf("%s: objective not bit-identical between %d and %d workers: %x vs %x (%v vs %v)",
			name, baseW, gotW, math.Float64bits(base.Obj), math.Float64bits(got.Obj), base.Obj, got.Obj)
	}
	if math.Float64bits(got.Bound) != math.Float64bits(base.Bound) {
		t.Errorf("%s: bound not bit-identical between %d and %d workers: %v vs %v", name, baseW, gotW, base.Bound, got.Bound)
	}
	if got.Nodes != base.Nodes {
		t.Errorf("%s: node count differs between %d and %d workers: %d vs %d", name, baseW, gotW, base.Nodes, got.Nodes)
	}
	if got.LPIterations != base.LPIterations {
		t.Errorf("%s: committed LP iterations differ between %d and %d workers: %d vs %d",
			name, baseW, gotW, base.LPIterations, got.LPIterations)
	}
	if len(got.X) != len(base.X) {
		t.Fatalf("%s: solution length differs between %d and %d workers", name, baseW, gotW)
	}
	for j := range base.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(base.X[j]) {
			t.Errorf("%s: x[%d] not bit-identical between %d and %d workers: %v vs %v",
				name, baseW, gotW, j, base.X[j], got.X[j])
		}
	}
}

// TestParallelDeterminism asserts the tentpole guarantee at the solver
// level: the full committed result — objective, solution vector, bound,
// node count, LP iteration count — is bit-identical for any worker count.
// Every case also solves from a caller-solved root (SolveFrom) at every
// worker count and requires the cold result minus the root's LP iterations.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-le", randKnapsack(5, 22, 30, false)},
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"knapsack-heur-off", randKnapsack(11, 20, 26, false)},
		{"multiknapsack", multiKnapsack(3, 30, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts Options
			if tc.name == "knapsack-heur-off" {
				opts.HeuristicEvery = -1
			}
			var base Result
			for _, w := range []int{1, 2, 4, 8} {
				o := opts
				o.Workers = w
				res := Solve(context.Background(), tc.prob, &o)
				if res.Status != StatusOptimal {
					t.Fatalf("workers=%d: status %v", w, res.Status)
				}
				assertHandedRoot(t, tc.name, tc.prob, &o, res)
				if w == 1 {
					base = res
					if res.WastedLPIterations != 0 {
						t.Errorf("single worker reported %d wasted LP iterations; speculation must be off", res.WastedLPIterations)
					}
					continue
				}
				assertBitIdentical(t, tc.name, base, res, 1, w)
			}
		})
	}
}

// assertHandedRoot solves p again from a root relaxation solved outside the
// search and requires cold, the same solve without a handed root, with the
// root's LP iterations taken out. The handed instance must come back
// untouched: same rows, root bounds, and a warm re-solve from the root basis
// and factors that reaches the root objective in as many iterations as the
// same re-solve on a fresh instance that never met the search. (That count
// need not be 0: on multiKnapsack it is 1 for a fresh instance too.)
func assertHandedRoot(t *testing.T, name string, p *Problem, o *Options, cold Result) {
	t.Helper()
	warm := func(inst *lp.Instance, root lp.Result) lp.Result {
		return inst.Solve(&lp.Options{WarmBasis: root.Basis, WarmFactors: root.Factors})
	}
	inst := lp.NewInstance(p.LP)
	root := inst.Solve(&lp.Options{CaptureFactors: true})
	if root.Status != lp.StatusOptimal || root.Iterations == 0 {
		t.Fatalf("%s: root relaxation status %v after %d iterations", name, root.Status, root.Iterations)
	}
	got := SolveFrom(context.Background(), p, o, &Root{Inst: inst, Res: root})
	want := cold
	want.LPIterations -= root.Iterations
	assertBitIdentical(t, name+"/handed-root", want, got, o.Workers, o.Workers)

	if inst.NumRows() != p.LP.NumRows() {
		t.Errorf("%s: handed instance has %d rows after the search, %d before", name, inst.NumRows(), p.LP.NumRows())
	}
	for j := 0; j < inst.NumCols(); j++ {
		if lo, hi := inst.ColBounds(j); lo != p.LP.ColLB[j] || hi != p.LP.ColUB[j] {
			t.Fatalf("%s: handed instance column %d has bounds [%v,%v] after the search, root [%v,%v]",
				name, j, lo, hi, p.LP.ColLB[j], p.LP.ColUB[j])
		}
	}
	fresh := lp.NewInstance(p.LP)
	ref := warm(fresh, fresh.Solve(&lp.Options{CaptureFactors: true}))
	again := warm(inst, root)
	if again.Iterations != ref.Iterations || math.Float64bits(again.Obj) != math.Float64bits(root.Obj) {
		t.Errorf("%s: warm re-solve of the handed instance took %d iterations to %v; untouched: %d iterations, root %v",
			name, again.Iterations, again.Obj, ref.Iterations, root.Obj)
	}
}

// TestParallelDeterminismRepeated re-runs the same parallel solve several
// times: scheduling noise between runs must never leak into the committed
// result.
func TestParallelDeterminismRepeated(t *testing.T) {
	mp := randKnapsack(13, 20, 27, true)
	base := Solve(context.Background(), mp, &Options{Workers: 4})
	if base.Status != StatusOptimal {
		t.Fatalf("status %v", base.Status)
	}
	for i := 0; i < 4; i++ {
		res := Solve(context.Background(), mp, &Options{Workers: 4})
		assertBitIdentical(t, "repeat", base, res, 4, 4)
	}
}

// TestParallelIncumbentStress hammers the shared atomic incumbent: an
// equality-constrained knapsack produces a long chain of improving
// incumbents while eight workers race to read the published bound for
// speculation pruning. Run under -race this is the engine's memory-model
// check; in any mode it asserts the parallel result matches serial.
func TestParallelIncumbentStress(t *testing.T) {
	mp := multiKnapsack(7, 28, 8)
	serial := Solve(context.Background(), mp, &Options{Workers: 1})
	if serial.Status != StatusOptimal {
		t.Fatalf("serial status %v", serial.Status)
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		res := Solve(context.Background(), mp, &Options{Workers: 8})
		assertBitIdentical(t, "stress", serial, res, 1, 8)
	}
}

// TestParallelProgressSerialized checks that progress callbacks stay
// serialized on the committing goroutine with many workers: concurrent
// invocations would race on the unsynchronized counter (and trip -race).
func TestParallelProgressSerialized(t *testing.T) {
	mp := randKnapsack(7, 24, 32, true)
	calls := 0
	lastNodes := 0
	opts := &Options{
		Workers:       8,
		ProgressEvery: 1,
		Progress: func(p Progress) {
			calls++
			if p.NewIncumbent {
				return
			}
			if p.Nodes < lastNodes {
				t.Errorf("periodic progress went backwards: %d after %d", p.Nodes, lastNodes)
			}
			lastNodes = p.Nodes
			if p.Worker < 0 || p.Worker > 8 {
				t.Errorf("progress carries out-of-range worker id %d", p.Worker)
			}
		},
	}
	res := Solve(context.Background(), mp, opts)
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
}

// TestParallelCancellation cancels mid-search with every worker busy; the
// solve must come back promptly with StatusCancelled and no goroutine may
// outlive it (the -race build would flag stragglers writing task state).
func TestParallelCancellation(t *testing.T) {
	mp := randKnapsack(5, 40, 55, true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := Solve(ctx, mp, &Options{Workers: 8})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Status != StatusCancelled && res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
}

// TestTightTimeLimitStops is the regression test for the hoisted deadline
// check: the wall clock is only read every timedOutEvery nodes, which must
// not let a tight-but-positive TimeLimit run away (the LP-level deadline
// bounds each node solve independently).
func TestTightTimeLimitStops(t *testing.T) {
	mp := multiKnapsack(5, 50, 15) // ~140 ms serial: cannot finish in 30 ms
	for _, w := range []int{1, 4} {
		start := time.Now()
		res := Solve(context.Background(), mp, &Options{TimeLimit: 30 * time.Millisecond, Workers: w})
		elapsed := time.Since(start)
		if res.Status != StatusLimit {
			t.Fatalf("workers=%d: status %v, want %v (elapsed %v)", w, res.Status, StatusLimit, elapsed)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: 30ms time limit stopped only after %v", w, elapsed)
		}
	}
}
