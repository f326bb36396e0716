package lp

import (
	"math"
	"math/rand"
	"testing"
)

// solveNoPresolve bypasses the presolve layer (Instance.Solve is the path
// the MIP solver uses), for comparing against the presolved result.
func solveNoPresolve(p *Problem, opts *Options) Result {
	return NewInstance(p).Solve(opts)
}

func TestPresolveSingletonRow(t *testing.T) {
	// min x + y s.t. 2x = 6 (singleton equality), x + y ≥ 5.
	p := NewProblem()
	x := p.AddCol(1, 0, 10)
	y := p.AddCol(1, 0, 10)
	p.AddEQ([]int32{int32(x)}, []float64{2}, 6)
	p.AddGE([]int32{int32(x), int32(y)}, []float64{1, 1}, 5)

	ps := presolve(p)
	if ps == nil {
		t.Fatal("presolve found no reductions on a singleton-row problem")
	}
	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-5) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 5", res.Status, res.Obj)
	}
	if math.Abs(res.X[0]-3) > 1e-7 || math.Abs(res.X[1]-2) > 1e-7 {
		t.Fatalf("x = %v, want [3 2]", res.X)
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-6)
}

func TestPresolveFullyReduced(t *testing.T) {
	// Every column is pinned by a singleton row; nothing reaches the simplex.
	p := NewProblem()
	x := p.AddCol(2, 0, 10)
	y := p.AddCol(-3, 0, 10)
	p.AddEQ([]int32{int32(x)}, []float64{1}, 4)
	p.AddEQ([]int32{int32(y)}, []float64{1}, 1)

	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-5) > 1e-9 {
		t.Fatalf("status %v obj %v, want optimal 5", res.Status, res.Obj)
	}
	if res.Iterations != 0 {
		t.Fatalf("fully presolved problem used %d simplex iterations", res.Iterations)
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-6)
}

func TestPresolveInfeasibleSingleton(t *testing.T) {
	// Two singleton rows force x to incompatible values.
	p := NewProblem()
	x := p.AddCol(1, 0, 10)
	p.AddEQ([]int32{int32(x)}, []float64{1}, 2)
	p.AddEQ([]int32{int32(x)}, []float64{1}, 3)
	if res := Solve(p, nil); res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestPresolveEmptyAndRedundantRows(t *testing.T) {
	// A row over fixed columns becomes empty; a wide row is redundant.
	p := NewProblem()
	x := p.AddCol(1, 2, 2) // fixed at 2
	y := p.AddCol(1, 0, 3)
	p.AddRow([]int32{int32(x)}, []float64{1}, 0, 5)
	p.AddRow([]int32{int32(x), int32(y)}, []float64{1, 1}, -100, 100)
	p.AddGE([]int32{int32(y)}, []float64{1}, 1)

	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-3) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 3", res.Status, res.Obj)
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-6)
}

func TestPresolveEmptyRowInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddCol(1, 1, 1) // fixed at 1
	p.AddGE([]int32{int32(x)}, []float64{1}, 3)
	if res := Solve(p, nil); res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
}

func TestPresolveEmptyColumn(t *testing.T) {
	// y appears in no row: it must land on its objective-favored bound.
	p := NewProblem()
	x := p.AddCol(1, 0, 10)
	y := p.AddCol(-2, 0, 7) // minimize −2y → ub
	p.AddGE([]int32{int32(x)}, []float64{1}, 4)

	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-(4-14)) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal -10", res.Status, res.Obj)
	}
	if math.Abs(res.X[y]-7) > 1e-9 {
		t.Fatalf("empty column landed at %v, want its favored bound 7", res.X[y])
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-6)
}

func TestPresolveUnboundedEmptyColumnKept(t *testing.T) {
	// The favored bound of the empty column is infinite: presolve must keep
	// it and let the simplex certify unboundedness (after feasibility).
	p := NewProblem()
	x := p.AddCol(1, 0, 1)
	p.AddCol(-1, 0, Inf)
	p.AddEQ([]int32{int32(x)}, []float64{1}, 1)
	if res := Solve(p, nil); res.Status != StatusUnbounded {
		t.Fatalf("status %v, want unbounded", res.Status)
	}
}

func TestPresolveMaximizeSense(t *testing.T) {
	// Favored bounds flip under Maximize.
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(3, 0, 5) // maximize 3x → ub
	y := p.AddCol(1, 0, 10)
	p.AddEQ([]int32{int32(y)}, []float64{2}, 8)

	res := Solve(p, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-19) > 1e-7 {
		t.Fatalf("status %v obj %v, want optimal 19", res.Status, res.Obj)
	}
	if math.Abs(res.X[x]-5) > 1e-9 || math.Abs(res.X[y]-4) > 1e-9 {
		t.Fatalf("x = %v, want [5 4]", res.X)
	}
	checkFeasible(t, p, res.X, 1e-6)
	checkKKT(t, p, res, 1e-6)
}

// TestPresolveRoundTripRandom cross-checks the presolved path against the
// direct simplex on random LPs seeded with presolve-friendly structure
// (fixed columns, singleton rows, wide rows): identical objectives, primal
// feasibility and full-problem KKT.
func TestPresolveRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(12)
		m := 2 + rng.Intn(15)
		p, _ := buildRandomLP(rng, n, m)
		// Inject reducible structure.
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.2 {
				v := p.ColLB[j]
				p.ColLB[j], p.ColUB[j] = v, v // fix
			}
		}
		for extra := rng.Intn(3); extra > 0; extra-- {
			j := rng.Intn(n)
			lo, hi := p.ColLB[j], p.ColUB[j]
			mid := lo + (hi-lo)*rng.Float64()
			p.AddRow([]int32{int32(j)}, []float64{1 + rng.Float64()},
				lo, mid+(hi-mid)*rng.Float64())
		}
		p.AddRow(nil, nil, -1, 1)

		direct := solveNoPresolve(p, nil)
		viaPre := Solve(p, nil)
		if direct.Status != viaPre.Status {
			t.Fatalf("trial %d: status %v (presolved) vs %v (direct)", trial, viaPre.Status, direct.Status)
		}
		if direct.Status != StatusOptimal {
			continue
		}
		if math.Abs(direct.Obj-viaPre.Obj) > 1e-6*(1+math.Abs(direct.Obj)) {
			t.Fatalf("trial %d: obj %v (presolved) vs %v (direct)", trial, viaPre.Obj, direct.Obj)
		}
		checkFeasible(t, p, viaPre.X, 1e-6)
		checkKKT(t, p, viaPre, 1e-5)
	}
}

// TestPresolveBasisWarmStart verifies that the postsolved basis is a valid
// warm-start basis for the full problem: adopting it and re-solving (even
// after a bound change) must succeed and agree with a cold solve.
func TestPresolveBasisWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		m := 2 + rng.Intn(12)
		p, _ := buildRandomLP(rng, n, m)
		if rng.Intn(2) == 0 {
			j := rng.Intn(n)
			p.ColLB[j] = p.ColUB[j] // ensure a reduction fires
		}
		p.AddRow([]int32{int32(rng.Intn(n))}, []float64{1},
			math.Inf(-1), 1e6)

		res := Solve(p, nil)
		if res.Status != StatusOptimal {
			continue
		}
		if res.Basis == nil {
			t.Fatalf("trial %d: optimal presolved result carries no basis", trial)
		}
		// Branch-style bound change, then warm start from the lifted basis.
		j := rng.Intn(n)
		if !math.IsInf(p.ColUB[j], 1) && p.ColUB[j] > p.ColLB[j] {
			p.ColUB[j] = p.ColLB[j] + (p.ColUB[j]-p.ColLB[j])/2
		}
		warm := NewInstance(p).Solve(&Options{WarmBasis: res.Basis})
		cold := solveNoPresolve(p, nil)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v vs cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == StatusOptimal &&
			math.Abs(warm.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("trial %d: warm obj %v vs cold %v", trial, warm.Obj, cold.Obj)
		}
	}
}
