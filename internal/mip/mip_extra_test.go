package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tvnep/internal/lp"
)

func TestMinimizeWithNegativeRange(t *testing.T) {
	// min 2x + 3y, x ∈ [−4, 4] integer, y ∈ [−2, 2] integer, x + y ≥ −3.
	// Optimum: y = −2, x = −1 → −8? check: x+y = −3 ✓, obj = −2−6 = −8;
	// or x = −4, y = 1 → −8 −... x+y = −3 ✓ obj = −8+3 = −5. So −8.
	p := lp.NewProblem()
	x := p.AddCol(2, -4, 4)
	y := p.AddCol(3, -2, 2)
	p.AddGE([]int32{int32(x), int32(y)}, []float64{1, 1}, -3)
	mp := &Problem{LP: p, Integer: integerAt(p, x, y)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(-8)) > 1e-6 {
		t.Fatalf("status %v obj %v X %v, want optimal -8", res.Status, res.Obj, res.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max x + y with x integer ≤ 2.5 → 2, y continuous ≤ 1.5 coupled by
	// x + 2y ≤ 5 → y = 1.5.
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	x := p.AddCol(1, 0, 2.5)
	y := p.AddCol(1, 0, 1.5)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 2}, 5)
	mp := &Problem{LP: p, Integer: integerAt(p, x)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-3.5) > 1e-6 {
		t.Fatalf("obj %v, want 3.5 (x=2, y=1.5)", res.Obj)
	}
	if math.Abs(res.X[x]-2) > 1e-9 {
		t.Fatalf("x = %v, want 2", res.X[x])
	}
}

// TestRootHeuristicFindsIncumbent: the rounding heuristic runs at the
// root, so on a knapsack whose root relaxation is fractional the first
// incumbent callback already comes at node 1.
func TestRootHeuristicFindsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	var idx []int32
	var val []float64
	for j := 0; j < 15; j++ {
		c := p.AddCol(rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*4)
	}
	p.AddLE(idx, val, 20)
	first := 0
	res := Solve(context.Background(), &Problem{LP: p, Integer: allInteger(15)}, &Options{Progress: func(pr Progress) {
		if pr.NewIncumbent && first == 0 {
			first = pr.Nodes
		}
	}})
	if res.Status != StatusOptimal || res.Nodes < 2 {
		t.Fatalf("status %v after %d nodes; the case no longer branches", res.Status, res.Nodes)
	}
	fractional := false
	for _, x := range res.Root.X {
		fractional = fractional || math.Abs(x-math.Round(x)) > 1e-6
	}
	if !fractional || first != 1 {
		t.Fatalf("root relaxation fractional %v, first incumbent at node %d, want a fractional root and node 1", fractional, first)
	}
}

func TestRepeatedSolveIndependence(t *testing.T) {
	// Solving the same Problem twice must give identical results (no state
	// leaks through the shared *lp.Problem).
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	a := p.AddCol(5, 0, 1)
	b := p.AddCol(4, 0, 1)
	p.AddLE([]int32{int32(a), int32(b)}, []float64{2, 3}, 4)
	mp := &Problem{LP: p, Integer: integerAt(p, a, b)}
	r1 := Solve(context.Background(), mp, nil)
	r2 := Solve(context.Background(), mp, nil)
	if r1.Obj != r2.Obj || r1.Status != r2.Status {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", r1.Status, r1.Obj, r2.Status, r2.Obj)
	}
}

func TestDeepBranching(t *testing.T) {
	// A problem that needs real branching: equality-sum with weights that
	// defeat rounding. 3a + 5b + 7c + 9d = 16, binaries → a=0,b=0,c=1,d=1.
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	cols := []int32{}
	w := []float64{3, 5, 7, 9}
	for j := 0; j < 4; j++ {
		cols = append(cols, int32(p.AddCol(1, 0, 1)))
	}
	p.AddEQ(cols, w, 16)
	mp := &Problem{LP: p, Integer: allInteger(4)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[2]-1) > 1e-9 || math.Abs(res.X[3]-1) > 1e-9 ||
		math.Abs(res.X[0]) > 1e-9 || math.Abs(res.X[1]) > 1e-9 {
		t.Fatalf("solution %v, want c=d=1", res.X)
	}
}

func TestGeneralIntegerBranching(t *testing.T) {
	// Diophantine-flavored: max 7x + 9y s.t. 13x + 11y ≤ 47, x,y ≥ 0 int.
	// Candidates: x=0,y=4 → 36; x=1,y=3 → 34; x=2,y=1 → 23; x=3,y=0 → 21.
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	x := p.AddCol(7, 0, lp.Inf)
	y := p.AddCol(9, 0, lp.Inf)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{13, 11}, 47)
	mp := &Problem{LP: p, Integer: integerAt(p, x, y)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-36) > 1e-6 {
		t.Fatalf("obj %v X %v, want 36 at (0,4)", res.Obj, res.X)
	}
}

func TestLargerBruteForceSweep(t *testing.T) {
	// Wider randomized cross-validation than the base suite: mixed senses,
	// equalities, continuous riders.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nInt := 3 + rng.Intn(6)
		p := lp.NewProblem()
		if rng.Intn(2) == 0 {
			p.Sense = lp.Maximize
		}
		var intCols []int
		for j := 0; j < nInt; j++ {
			intCols = append(intCols, p.AddCol(rng.NormFloat64()*4, 0, 1))
		}
		cont := p.AddCol(rng.NormFloat64(), 0, 3)
		_ = cont
		for i := 0; i < 2+rng.Intn(4); i++ {
			var idx []int32
			var val []float64
			for j := 0; j < p.NumCols(); j++ {
				if rng.Float64() < 0.6 {
					idx = append(idx, int32(j))
					val = append(val, float64(rng.Intn(9)-4))
				}
			}
			if len(idx) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddLE(idx, val, float64(rng.Intn(6)))
			case 1:
				p.AddGE(idx, val, -float64(rng.Intn(6)))
			default:
				p.AddEQ(idx, val, float64(rng.Intn(3)))
			}
		}
		mp := &Problem{LP: p, Integer: integerAt(p, intCols...)}
		res := Solve(context.Background(), mp, nil)
		want := bruteForceBinary(p, intCols)
		if math.IsNaN(want) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj %v", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != StatusOptimal || math.Abs(res.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: got %v obj %v, brute force %v", trial, res.Status, res.Obj, want)
		}
	}
}
