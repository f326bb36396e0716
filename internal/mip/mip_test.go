package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"tvnep/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c ≤ 6, binaries.
	// Best: a + c = 17 (weight 5); b + c = 20 (weight 6) ✓ → 20.
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	a := p.AddCol(10, 0, 1)
	b := p.AddCol(13, 0, 1)
	c := p.AddCol(7, 0, 1)
	p.AddLE([]int32{int32(a), int32(b), int32(c)}, []float64{3, 4, 2}, 6)
	mp := &Problem{LP: p, Integer: integerAt(p, a, b, c)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-20) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 20", res.Status, res.Obj)
	}
	if math.Abs(res.X[b]-1) > 1e-6 || math.Abs(res.X[c]-1) > 1e-6 || math.Abs(res.X[a]) > 1e-6 {
		t.Fatalf("solution %v, want b=c=1, a=0", res.X)
	}
	if res.Gap != 0 {
		t.Fatalf("gap = %v, want 0", res.Gap)
	}
}

func TestPureLPPassThrough(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddCol(1, 0, 5)
	p.AddGE([]int32{int32(x)}, []float64{1}, 2.5)
	mp := &Problem{LP: p} // no integers
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-2.5) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 2.5", res.Status, res.Obj)
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. x ≥ 2.3, x integer → 3.
	p := lp.NewProblem()
	x := p.AddCol(1, 0, 10)
	p.AddGE([]int32{int32(x)}, []float64{1}, 2.3)
	mp := &Problem{LP: p, Integer: integerAt(p, x)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-3) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 3", res.Status, res.Obj)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// 0.4 ≤ x ≤ 0.6, x integer → infeasible.
	p := lp.NewProblem()
	x := p.AddCol(1, 0.4, 0.6)
	_ = x
	mp := &Problem{LP: p, Integer: integerAt(p, x)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	if res.HasSolution {
		t.Fatal("infeasible MIP reports a solution")
	}
	if !math.IsInf(res.Gap, 1) {
		t.Fatalf("gap = %v, want +Inf", res.Gap)
	}
}

func TestUnboundedMIP(t *testing.T) {
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	p.AddCol(1, 0, lp.Inf)
	mp := &Problem{LP: p, Integer: integerAt(p, 0)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestEqualityParity(t *testing.T) {
	// x + y = 5, x,y ≥ 0 integer, min 3x + y → x=0, y=5 → 5.
	p := lp.NewProblem()
	x := p.AddCol(3, 0, lp.Inf)
	y := p.AddCol(1, 0, lp.Inf)
	p.AddEQ([]int32{int32(x), int32(y)}, []float64{1, 1}, 5)
	mp := &Problem{LP: p, Integer: integerAt(p, x, y)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-5) > 1e-6 {
		t.Fatalf("status %v obj %v, want optimal 5", res.Status, res.Obj)
	}
}

// bruteForceBinary enumerates all binary assignments and returns the best
// objective (original sense), or NaN if infeasible.
func bruteForceBinary(p *lp.Problem, intCols []int) float64 {
	nInt := len(intCols)
	best := math.NaN()
	better := func(a, b float64) bool {
		if p.Sense == lp.Maximize {
			return a > b
		}
		return a < b
	}
	for mask := 0; mask < 1<<nInt; mask++ {
		inst := lp.NewInstance(p)
		for k, j := range intCols {
			v := float64((mask >> k) & 1)
			inst.SetColBounds(j, v, v)
		}
		res := inst.Solve(nil)
		if res.Status != lp.StatusOptimal {
			continue
		}
		if math.IsNaN(best) || better(res.Obj, best) {
			best = res.Obj
		}
	}
	return best
}

func TestRandomBinaryMIPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		nInt := 2 + rng.Intn(7)
		nCont := rng.Intn(4)
		p := lp.NewProblem()
		if rng.Intn(2) == 0 {
			p.Sense = lp.Maximize
		}
		var intCols []int
		for j := 0; j < nInt; j++ {
			intCols = append(intCols, p.AddCol(rng.NormFloat64()*5, 0, 1))
		}
		for j := 0; j < nCont; j++ {
			p.AddCol(rng.NormFloat64(), 0, 2)
		}
		m := 1 + rng.Intn(6)
		for i := 0; i < m; i++ {
			var idx []int32
			var val []float64
			for j := 0; j < p.NumCols(); j++ {
				if rng.Float64() < 0.5 {
					idx = append(idx, int32(j))
					val = append(val, float64(rng.Intn(7)-3))
				}
			}
			if len(idx) == 0 {
				continue
			}
			rhs := float64(rng.Intn(5))
			if rng.Intn(2) == 0 {
				p.AddLE(idx, val, rhs)
			} else {
				p.AddGE(idx, val, -rhs)
			}
		}
		mp := &Problem{LP: p, Integer: integerAt(p, intCols...)}
		res := Solve(context.Background(), mp, nil)
		want := bruteForceBinary(p, intCols)
		if math.IsNaN(want) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v (obj %v)", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, brute force found %v", trial, res.Status, want)
		}
		if math.Abs(res.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: obj %v, brute force %v", trial, res.Obj, want)
		}
	}
}

func TestGeneralIntegerMIP(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6, x,y ≥ 0 integer.
	// LP optimum (3, 1.5) → 21; integer optimum x=4,y=0 → 20 or x=2,y=2 → 18;
	// check: x=4,y=0: 24 ≤ 24 ✓, 4 ≤ 6 ✓ → 20. x=3,y=1: 22 ≤ 24 ✓, 5 ≤ 6 ✓ → 19.
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	x := p.AddCol(5, 0, lp.Inf)
	y := p.AddCol(4, 0, lp.Inf)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{6, 4}, 24)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 2}, 6)
	mp := &Problem{LP: p, Integer: integerAt(p, x, y)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-20) > 1e-6 {
		t.Fatalf("status %v obj %v X %v, want optimal 20", res.Status, res.Obj, res.X)
	}
}

func TestTimeLimit(t *testing.T) {
	// A hard-ish equality knapsack to burn nodes, with a 1 ns limit: must
	// stop before the first node and report StatusTimeLimit.
	rng := rand.New(rand.NewSource(5))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	var idx []int32
	var val []float64
	for j := 0; j < 30; j++ {
		c := p.AddCol(rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*9)
	}
	p.AddLE(idx, val, 40)
	mp := &Problem{LP: p, Integer: allInteger(30)}
	res := Solve(context.Background(), mp, &Options{TimeLimit: time.Nanosecond})
	if res.Status != StatusTimeLimit || res.HasSolution {
		t.Fatalf("status = %v (has solution %v), want time-limit without one", res.Status, res.HasSolution)
	}
}

func TestNodeLimit(t *testing.T) {
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	rng := rand.New(rand.NewSource(6))
	var idx []int32
	var val []float64
	for j := 0; j < 25; j++ {
		c := p.AddCol(rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*9)
	}
	p.AddLE(idx, val, 30)
	mp := &Problem{LP: p, Integer: allInteger(25)}
	res := Solve(context.Background(), mp, &Options{NodeLimit: 3})
	if res.Status != StatusFeasible && res.Status != StatusTimeLimit && res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.HasSolution != (res.Status != StatusTimeLimit) {
		t.Fatalf("status %v with has solution %v", res.Status, res.HasSolution)
	}
	if res.Nodes > 3 {
		t.Fatalf("nodes = %d, want ≤ 3", res.Nodes)
	}
}

func TestBoundAndGapConsistency(t *testing.T) {
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	rng := rand.New(rand.NewSource(11))
	var idx []int32
	var val []float64
	for j := 0; j < 20; j++ {
		c := p.AddCol(rng.Float64()*10, 0, 1)
		idx = append(idx, int32(c))
		val = append(val, 1+rng.Float64()*5)
	}
	p.AddLE(idx, val, 25)
	mp := &Problem{LP: p, Integer: allInteger(20)}
	res := Solve(context.Background(), mp, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Bound < res.Obj-1e-6 {
		t.Fatalf("max problem: bound %v < obj %v", res.Bound, res.Obj)
	}
	// Verify the incumbent is actually feasible and integral.
	act := 0.0
	for k, j := range idx {
		x := res.X[j]
		if math.Abs(x-math.Round(x)) > 1e-9 {
			t.Fatalf("x[%d] = %v not integral", j, x)
		}
		act += val[k] * x
	}
	if act > 25+1e-6 {
		t.Fatalf("capacity violated: %v > 25", act)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal: "optimal", StatusFeasible: "feasible", StatusInfeasible: "infeasible",
		StatusUnbounded: "unbounded", StatusTimeLimit: "time-limit", StatusCancelled: "cancelled",
		Status(9): "unknown",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

// allInteger is the integrality mask of n integer columns; columns past
// them are continuous.
func allInteger(n int) []bool {
	mask := make([]bool, n)
	for j := range mask {
		mask[j] = true
	}
	return mask
}

// integerAt is the integrality mask over p's columns that marks cols.
func integerAt(p *lp.Problem, cols ...int) []bool {
	mask := make([]bool, p.NumCols())
	for _, j := range cols {
		mask[j] = true
	}
	return mask
}
