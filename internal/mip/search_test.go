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
		c := p.AddCol(rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*4)
		ones = append(ones, 1)
	}
	p.AddLE(idx, val, capacity)
	if eq {
		p.AddEQ(idx, ones, math.Floor(float64(n)/3))
	}
	return &Problem{LP: p, Integer: allInteger(n)}
}

// multiKnapsack builds a randomized multidimensional 0/1 knapsack: m
// correlated capacity rows make the LP bound loose, so the search has to
// explore a deep tree (thousands of nodes).
func multiKnapsack(seed int64, n, m int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	var idx []int32
	for j := 0; j < n; j++ {
		c := p.AddCol(1+rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
	}
	for i := 0; i < m; i++ {
		val := make([]float64, n)
		tot := 0.0
		for j := range val {
			val[j] = rng.Float64() * 10
			tot += val[j]
		}
		p.AddLE(idx, val, tot*0.3)
	}
	return &Problem{LP: p, Integer: allInteger(n)}
}

// assertBitIdentical fails the test unless the two results agree bit for
// bit on every deterministic field (Runtime is the only field allowed to
// differ).
func assertBitIdentical(t *testing.T, name string, base, got Result) {
	t.Helper()
	if got.Status != base.Status {
		t.Errorf("%s: status differs: %v vs %v", name, base.Status, got.Status)
	}
	if got.HasSolution != base.HasSolution {
		t.Errorf("%s: HasSolution differs", name)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(base.Obj) {
		t.Errorf("%s: objective not bit-identical: %x vs %x (%v vs %v)",
			name, math.Float64bits(base.Obj), math.Float64bits(got.Obj), base.Obj, got.Obj)
	}
	if math.Float64bits(got.Bound) != math.Float64bits(base.Bound) {
		t.Errorf("%s: bound not bit-identical: %v vs %v", name, base.Bound, got.Bound)
	}
	if got.Nodes != base.Nodes {
		t.Errorf("%s: node count differs: %d vs %d", name, base.Nodes, got.Nodes)
	}
	if got.LPIterations != base.LPIterations {
		t.Errorf("%s: LP iterations differ: %d vs %d", name, base.LPIterations, got.LPIterations)
	}
	if len(got.X) != len(base.X) {
		t.Fatalf("%s: solution length differs", name)
	}
	for j := range base.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(base.X[j]) {
			t.Errorf("%s: x[%d] not bit-identical: %v vs %v", name, j, base.X[j], got.X[j])
		}
	}
}

// TestParallelDeterminism solves every case cold and again on instances
// the caller compiled (SolveFrom), and requires the later results to be
// the first bit for bit.
func TestParallelDeterminism(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-le", randKnapsack(5, 22, 30, false)},
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"multiknapsack", multiKnapsack(3, 30, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Solve(context.Background(), tc.prob, nil)
			if res.Status != StatusOptimal {
				t.Fatalf("status %v", res.Status)
			}
			assertSolveFrom(t, tc.name, tc.prob, nil, res)
		})
	}
}

// assertSolveFrom solves p again on an unsolved instance compiled by the
// caller, twice on one recompiled instance so the second search draws the
// storage the first handed back, and requires cold, the same problem's
// Solve, each time.
func assertSolveFrom(t *testing.T, name string, p *Problem, o *Options, cold Result) {
	t.Helper()
	var inst lp.Instance
	for pass := 0; pass < 2; pass++ {
		inst.Recompile(p.LP)
		got := SolveFrom(context.Background(), p, o, &inst)
		assertBitIdentical(t, name+"/solve-from", cold, got)
	}
}

// TestProgressCallbacks pins the progress contract: a periodic callback
// after every progressEvery-th node, in node order, and one callback per
// incumbent improvement, the last of which reports the final objective.
func TestProgressCallbacks(t *testing.T) {
	const every = progressEvery
	mp := multiKnapsack(3, 30, 10) // 1,214 nodes, 4 incumbents
	var periodic []int
	var incs []float64
	res := Solve(context.Background(), mp, &Options{
		Progress: func(p Progress) {
			if p.NewIncumbent {
				incs = append(incs, p.Incumbent)
				return
			}
			periodic = append(periodic, p.Nodes)
		},
	})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if len(periodic) == 0 || len(periodic) != res.Nodes/every {
		t.Errorf("%d periodic callbacks over %d nodes, want %d", len(periodic), res.Nodes, res.Nodes/every)
	}
	for k, n := range periodic {
		if n != every*(k+1) {
			t.Fatalf("periodic callback %d at node %d, want %d", k, n, every*(k+1))
		}
	}
	if len(incs) == 0 {
		t.Fatal("no incumbent callback")
	}
	for k := 1; k < len(incs); k++ {
		if incs[k] <= incs[k-1] { // the problem maximizes
			t.Errorf("incumbent callback %d reports %v after %v", k, incs[k], incs[k-1])
		}
	}
	if last := incs[len(incs)-1]; math.Float64bits(last) != math.Float64bits(res.Obj) {
		t.Errorf("last incumbent callback %v, result %v", last, res.Obj)
	}
}

// TestParallelCancellation cancels a running search from another goroutine
// at its first progress callback; the solve must come back promptly with
// StatusCancelled.
func TestParallelCancellation(t *testing.T) {
	mp := multiKnapsack(5, 50, 15) // ~140 ms: far from done after one node
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	running := make(chan struct{})
	go func() {
		<-running
		cancel()
	}()
	signalled := false
	start := time.Now()
	res := Solve(ctx, mp, &Options{Progress: func(Progress) {
		if !signalled {
			signalled = true
			close(running)
		}
	}})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status %v after %d nodes, want %v", res.Status, res.Nodes, StatusCancelled)
	}
}

// TestTightTimeLimitStops is the regression test for the hoisted deadline
// check: the wall clock is only read every timedOutEvery nodes, which must
// not let a tight-but-positive TimeLimit run away (the LP-level deadline
// bounds each node solve independently).
func TestTightTimeLimitStops(t *testing.T) {
	mp := multiKnapsack(5, 50, 15) // ~140 ms: cannot finish in 30 ms
	start := time.Now()
	res := Solve(context.Background(), mp, &Options{TimeLimit: 30 * time.Millisecond})
	elapsed := time.Since(start)
	want := StatusTimeLimit
	if res.HasSolution {
		want = StatusFeasible
	}
	if res.Status != want {
		t.Fatalf("status %v (has solution %v), want %v (elapsed %v)", res.Status, res.HasSolution, want, elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("30ms time limit stopped only after %v", elapsed)
	}
}

// TestSolveFromRecycledWorkspaces runs searches on one instance that each
// recompiles, the way the admission engine chains its decisions: a larger
// search grows the instance's workspace, then a smaller and a larger one
// solve on the dirty workspace. Each must be bit-identical to Solve, whose
// instance has a workspace of its own.
func TestSolveFromRecycledWorkspaces(t *testing.T) {
	ctx := context.Background()
	solveFrom := func(p *Problem, o *Options, inst *lp.Instance) Result {
		if inst == nil {
			return Solve(ctx, p, o)
		}
		inst.Recompile(p.LP)
		return SolveFrom(ctx, p, o, inst)
	}
	seq := []struct {
		name string
		prob *Problem
	}{
		{"multiknapsack-30x10", multiKnapsack(3, 30, 10)},
		{"knapsack-eq-18", randKnapsack(9, 18, 24, true)},
		{"multiknapsack-40x12", multiKnapsack(4, 40, 12)},
	}
	var o Options
	var inst lp.Instance
	for _, tc := range seq {
		want := solveFrom(tc.prob, &o, nil)
		if want.Status != StatusOptimal {
			t.Fatalf("%s: status %v", tc.name, want.Status)
		}
		assertBitIdentical(t, tc.name+"/recycled", want, solveFrom(tc.prob, &o, &inst))
	}
}

// TestResultRootIsFirstRelaxation pins Result.Root: the root node's first
// relaxation over the problem's own rows and columns, even when separation
// and pricing append rows and columns to the root LP later, with neither
// basis nor factors attached. SolveFrom on a caller-compiled instance
// returns the same result bit for bit, its root included.
func TestResultRootIsFirstRelaxation(t *testing.T) {
	const nFac = 6
	cases := []struct {
		name   string
		priced bool // pricing must append columns too
		build  func() (*Problem, *Options)
	}{
		{"priced-columns+cuts", true, func() (*Problem, *Options) {
			prob, lazy := colGenProblem(11, nFac, 30, false)
			pp := newOnePatternPricer(lazy)
			return prob, &Options{
				Pricers:    []Pricer{pp},
				Separators: []Separator{&vubSeparator{nFac: nFac, pricer: pp}},
			}
		}},
		{"cuts-deep", false, func() (*Problem, *Options) {
			prob := multiKnapsack(7, 28, 8)
			return prob, &Options{Separators: []Separator{&coverSeparator{prob: prob}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, o := tc.build()
			n, m := prob.LP.NumCols(), prob.LP.NumRows()
			res := Solve(context.Background(), prob, o)
			if res.Status != StatusOptimal {
				t.Fatalf("status %v", res.Status)
			}
			if res.Cuts.SeparatedRows == 0 || (tc.priced && res.Columns.PricedCols == 0) {
				t.Fatalf("cuts %+v, columns %+v: the case no longer appends to the root LP", res.Cuts, res.Columns)
			}
			root := res.Root
			if root.Status != lp.StatusOptimal || len(root.X) != n || len(root.Duals) != m {
				t.Fatalf("root: status %v, %d values and %d duals, want optimal over %d columns and %d rows",
					root.Status, len(root.X), len(root.Duals), n, m)
			}
			if root.Factors != nil || root.Basis != nil {
				t.Error("root result keeps its factors or basis")
			}
			want := lp.NewInstance(prob.LP).Solve(nil)
			if d := math.Abs(root.Obj - want.Obj); d > 1e-9*math.Max(1, math.Abs(want.Obj)) {
				t.Errorf("root objective %v, cold relaxation %v", root.Obj, want.Obj)
			}

			prob, o = tc.build()
			var inst lp.Instance
			inst.Recompile(prob.LP)
			from := SolveFrom(context.Background(), prob, o, &inst)
			assertBitIdentical(t, tc.name+"/solve-from", res, from)
			if math.Float64bits(from.Root.Obj) != math.Float64bits(root.Obj) {
				t.Errorf("SolveFrom root objective %v, Solve's %v", from.Root.Obj, root.Obj)
			}
			if from.Root.Factors != nil || from.Root.Basis != nil {
				t.Error("SolveFrom root result keeps its factors or basis")
			}
		})
	}
}
