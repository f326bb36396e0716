package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestDeadlineAborts(t *testing.T) {
	// A large random LP with an already-expired deadline must return
	// the iteration-limit status almost immediately.
	rng := rand.New(rand.NewSource(3))
	p, _ := buildRandomLP(rng, 60, 80)
	res := Solve(p, &Options{Deadline: time.Now().Add(-time.Second)})
	if res.Status != StatusIterLimit {
		t.Fatalf("status = %v, want iteration-limit", res.Status)
	}
}

// countdownCtx is a context whose Err turns non-nil after its first k calls.
type countdownCtx struct {
	context.Context
	k int
}

func (c *countdownCtx) Err() error {
	if c.k > 0 {
		c.k--
		return nil
	}
	return context.Canceled
}

// TestInterruptedColdSolveKeepsIterations interrupts a cold solve after
// k interruption checks, which the simplex makes every 64 iterations: the
// result must report the limit and the 64·k iterations already taken.
func TestInterruptedColdSolveKeepsIterations(t *testing.T) {
	p, _ := buildRandomLP(rand.New(rand.NewSource(3)), 300, 400)
	for k := 1; k <= 3; k++ {
		ctx := &countdownCtx{Context: context.Background(), k: k}
		res := Solve(p, &Options{Context: ctx})
		if res.Status != StatusIterLimit || res.Iterations != 64*k {
			t.Fatalf("k=%d: status %v after %d iterations, want %v after %d", k, res.Status, res.Iterations, StatusIterLimit, 64*k)
		}
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3×3 assignment problem: LP relaxation is integral (totally
	// unimodular), optimum picks the permutation with min cost.
	cost := [3][3]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	// Best: (0,1)+(1,0)+(2,2) = 1+2+2 = 5.
	p := NewProblem()
	var cols [3][3]int
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			cols[i][j] = p.AddCol(cost[i][j], 0, 1)
		}
	}
	for i := 0; i < 3; i++ {
		var ridx, cidx []int32
		for j := 0; j < 3; j++ {
			ridx = append(ridx, int32(cols[i][j]))
			cidx = append(cidx, int32(cols[j][i]))
		}
		p.AddEQ(ridx, []float64{1, 1, 1}, 1)
		p.AddEQ(cidx, []float64{1, 1, 1}, 1)
	}
	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-5) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 5", res.Status, res.Obj)
	}
	// Integrality of the basic solution.
	for _, x := range res.X {
		if math.Abs(x-math.Round(x)) > 1e-7 {
			t.Fatalf("assignment LP returned fractional vertex: %v", res.X)
		}
	}
}

func TestRepeatedSolvesSameInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p, _ := buildRandomLP(rng, 10, 12)
	inst := NewInstance(p)
	first := inst.Solve(nil)
	if first.Status != StatusOptimal {
		t.Fatalf("first solve: %v", first.Status)
	}
	for k := 0; k < 5; k++ {
		res := inst.Solve(nil)
		if res.Status != StatusOptimal || math.Abs(res.Obj-first.Obj) > 1e-8 {
			t.Fatalf("re-solve %d drifted: %v vs %v", k, res.Obj, first.Obj)
		}
	}
	// Warm start from its own final basis must agree too.
	warm := inst.Solve(&Options{WarmBasis: first.Basis})
	if warm.Status != StatusOptimal || math.Abs(warm.Obj-first.Obj) > 1e-8 {
		t.Fatalf("self-warm-start drifted: %v vs %v", warm.Obj, first.Obj)
	}
}

func TestWarmBasisDimensionMismatch(t *testing.T) {
	pa := NewProblem()
	pa.AddCol(1, 0, 1)
	resA := Solve(pa, nil)

	pb := NewProblem()
	pb.AddCol(1, 0, 1)
	pb.AddCol(1, 0, 1)
	pb.AddGE([]int32{0, 1}, []float64{1, 1}, 1)
	// A basis from a different problem must be rejected gracefully and the
	// solve must still succeed via the cold path.
	res := Solve(pb, &Options{WarmBasis: resA.Basis})
	if res.Status != StatusOptimal || math.Abs(res.Obj-1) > 1e-7 {
		t.Fatalf("mismatched warm basis broke the solve: %v %v", res.Status, res.Obj)
	}
}

func TestHighlyDegenerateLP(t *testing.T) {
	// Many redundant constraints through one vertex: classic degeneracy
	// stressor for the anti-cycling safeguards.
	p := NewProblem()
	x := p.AddCol(-1, 0, Inf)
	y := p.AddCol(-1, 0, Inf)
	for k := 0; k < 30; k++ {
		a := 1 + float64(k)*1e-9
		p.AddLE([]int32{int32(x), int32(y)}, []float64{a, 1}, 1)
	}
	res := Solve(p, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("degenerate LP: %v", res.Status)
	}
	if math.Abs(res.Obj-(-1)) > 1e-6 {
		t.Fatalf("obj = %v, want -1", res.Obj)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	res := Solve(p, nil)
	if res.Status != StatusOptimal || res.Obj != 0 {
		t.Fatalf("empty problem: %v obj %v", res.Status, res.Obj)
	}
}

func TestObjOffsetRoundTrip(t *testing.T) {
	p := NewProblem()
	p.ObjOffset = 7.5
	x := p.AddCol(2, 1, 3)
	_ = x
	res := Solve(p, nil)
	if math.Abs(res.Obj-(7.5+2)) > 1e-9 {
		t.Fatalf("obj = %v, want 9.5", res.Obj)
	}
	p.Sense = Maximize
	res = Solve(p, nil)
	if math.Abs(res.Obj-(7.5+6)) > 1e-9 {
		t.Fatalf("max obj = %v, want 13.5", res.Obj)
	}
}

func TestChainOfEqualities(t *testing.T) {
	// x0 = x1 = … = x9, x0 fixed at 2.5, minimize x9 → 2.5.
	p := NewProblem()
	var cols []int
	for i := 0; i < 10; i++ {
		lb, ub := math.Inf(-1), Inf
		if i == 0 {
			lb, ub = 2.5, 2.5
		}
		obj := 0.0
		if i == 9 {
			obj = 1
		}
		cols = append(cols, p.AddCol(obj, lb, ub))
	}
	for i := 0; i+1 < 10; i++ {
		p.AddEQ([]int32{int32(cols[i]), int32(cols[i+1])}, []float64{1, -1}, 0)
	}
	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-2.5) > 1e-7 {
		t.Fatalf("chain: %v obj %v", res.Status, res.Obj)
	}
	for i, x := range res.X {
		if math.Abs(x-2.5) > 1e-7 {
			t.Fatalf("x[%d] = %v, want 2.5", i, x)
		}
	}
}

func TestInstanceBoundAccessors(t *testing.T) {
	p := NewProblem()
	p.AddCol(1, -1, 4)
	inst := NewInstance(p)
	if lb, ub := inst.ColBounds(0); lb != -1 || ub != 4 {
		t.Fatalf("bounds %v %v", lb, ub)
	}
	inst.SetColBounds(0, 0, 2)
	if lb, ub := inst.ColBounds(0); lb != 0 || ub != 2 {
		t.Fatalf("bounds after set %v %v", lb, ub)
	}
	if inst.NumCols() != 1 || inst.NumRows() != 0 {
		t.Fatalf("dims %d %d", inst.NumCols(), inst.NumRows())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetColBounds with lb > ub did not panic")
		}
	}()
	inst.SetColBounds(0, 3, 1)
}

func TestAddRowValidation(t *testing.T) {
	p := NewProblem()
	p.AddCol(1, 0, 1)
	for name, fn := range map[string]func(){
		"len mismatch":   func() { p.AddRow([]int32{0}, []float64{1, 2}, 0, 1) },
		"col range":      func() { p.AddRow([]int32{5}, []float64{1}, 0, 1) },
		"inverted range": func() { p.AddRow([]int32{0}, []float64{1}, 2, 1) },
		"col lb>ub":      func() { p.AddCol(0, 3, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBigBandLP(t *testing.T) {
	// Banded structured LP of moderate size to exercise refactorization
	// scheduling: minimize Σx_i s.t. x_i + x_{i+1} ≥ 1.
	n := 200
	p := NewProblem()
	for i := 0; i < n; i++ {
		p.AddCol(1, 0, Inf)
	}
	for i := 0; i+1 < n; i++ {
		p.AddGE([]int32{int32(i), int32(i + 1)}, []float64{1, 1}, 1)
	}
	res := Solve(p, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("band LP: %v", res.Status)
	}
	// Optimum: alternate 0/1 → (n-1+1)/2 ≈ n/2... exact: ceil((n-1)/2)·1?
	// For a path cover with x ∈ [0,∞): LP optimum is (n-1)/2 achieved at
	// x_i = 1/2 everywhere except the ends can be shaved; accept the range.
	if res.Obj < float64(n-1)/2-1e-6 || res.Obj > float64(n)/2+1e-6 {
		t.Fatalf("band LP obj %v outside [%v, %v]", res.Obj, float64(n-1)/2, float64(n)/2)
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-5)
}
