package lp

import (
	"math"
	"math/rand"
	"testing"
)

// appendRandomRows draws extra rows that keep xstar feasible (so appending
// them never empties the feasible region) and returns them.
func appendRandomRows(rng *rand.Rand, n, count int, xstar []float64) (idxs [][]int32, vals [][]float64, lbs, ubs []float64) {
	for i := 0; i < count; i++ {
		var idx []int32
		var val []float64
		act := 0.0
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				v := rng.NormFloat64()
				idx = append(idx, int32(j))
				val = append(val, v)
				act += v * xstar[j]
			}
		}
		if len(idx) == 0 {
			idx = append(idx, 0)
			val = append(val, 1)
			act = xstar[0]
		}
		lo, hi := math.Inf(-1), act+rng.Float64()*0.5
		if rng.Intn(3) == 0 {
			lo = act - rng.Float64()*0.5
		}
		idxs = append(idxs, idx)
		vals = append(vals, val)
		lbs = append(lbs, lo)
		ubs = append(ubs, hi)
	}
	return
}

// TestAppendRowHotRestart is the core cutting-plane kernel test: solve, append
// rows, hot-restart from the old basis + factors, and require the same
// optimum as a cold solve of the full problem.
func TestAppendRowHotRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		m := 1 + rng.Intn(15)
		p, xstar := buildRandomLP(rng, n, m)
		m = p.NumRows() // empty candidate rows are skipped by the builder
		inst := NewInstance(p)
		res := inst.Solve(nil)
		inst.CaptureFactors(&res, nil)
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: base status %v", trial, res.Status)
		}

		count := 1 + rng.Intn(4)
		idxs, vals, lbs, ubs := appendRandomRows(rng, n, count, xstar)
		full := NewProblem()
		full.Sense = p.Sense
		for j := 0; j < n; j++ {
			full.AddCol(p.Obj[j], p.ColLB[j], p.ColUB[j])
		}
		for i := 0; i < p.NumRows(); i++ {
			ri, rv := p.Row(i)
			full.AddRow(ri, rv, p.RowLB[i], p.RowUB[i])
		}
		for i := range idxs {
			if got := inst.AppendRow(idxs[i], vals[i], lbs[i], ubs[i]); got != m+i {
				t.Fatalf("trial %d: AppendRow index %d, want %d", trial, got, m+i)
			}
			full.AddRow(idxs[i], vals[i], lbs[i], ubs[i])
		}
		if inst.NumRows() != m+count || inst.NumAppendedRows() != count {
			t.Fatalf("trial %d: row accounting off: %d/%d", trial, inst.NumRows(), inst.NumAppendedRows())
		}

		ext0 := DebugBasisExtensions.Load()
		warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
		inst.CaptureFactors(&warm, nil)
		cold := Solve(full, nil)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status != StatusOptimal {
			continue // xstar keeps it feasible; only numeric statuses could differ
		}
		if got, want := len(warm.Basis.Status), inst.NumCols()+inst.NumRows(); got != want {
			t.Fatalf("trial %d: basis holds %d statuses, want n+m = %d", trial, got, want)
		}
		if d := math.Abs(warm.Obj - cold.Obj); d > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("trial %d: warm obj %v, cold obj %v (diff %v)", trial, warm.Obj, cold.Obj, d)
		}
		checkFeasible(t, full, warm.X, 1e-6)
		if DebugBasisExtensions.Load() == ext0 {
			t.Fatalf("trial %d: hot restart did not use the bordered factor extension", trial)
		}

		// A second round on top of the first must chain (basis and factors
		// now include the first batch of appended rows).
		idxs2, vals2, lbs2, ubs2 := appendRandomRows(rng, n, 1, xstar)
		inst.AppendRow(idxs2[0], vals2[0], lbs2[0], ubs2[0])
		full.AddRow(idxs2[0], vals2[0], lbs2[0], ubs2[0])
		warm2 := inst.Solve(&Options{WarmBasis: warm.Basis, WarmFactors: warm.Factors})
		cold2 := Solve(full, nil)
		if warm2.Status != cold2.Status {
			t.Fatalf("trial %d: round-2 warm status %v, cold %v", trial, warm2.Status, cold2.Status)
		}
		if warm2.Status == StatusOptimal {
			if d := math.Abs(warm2.Obj - cold2.Obj); d > 1e-6*(1+math.Abs(cold2.Obj)) {
				t.Fatalf("trial %d: round-2 warm obj %v, cold obj %v", trial, warm2.Obj, cold2.Obj)
			}
		}
	}
}

func TestAppendRowRedundantCutIsFree(t *testing.T) {
	// A row the optimum already satisfies must hot-restart in zero pivots.
	p := NewProblem()
	x := p.AddCol(-1, 0, 10)
	y := p.AddCol(-1, 0, 10)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 1}, 12)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj+12) > 1e-9 {
		t.Fatalf("base solve: %v obj %v", res.Status, res.Obj)
	}
	inst.AppendRow([]int32{int32(x)}, []float64{1}, math.Inf(-1), 11) // slack at optimum
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	if warm.Status != StatusOptimal || math.Abs(warm.Obj+12) > 1e-9 {
		t.Fatalf("warm after redundant row: %v obj %v", warm.Status, warm.Obj)
	}
	// The dual loop burns one iteration certifying feasibility (recompute
	// x_B once), but performs no pivot.
	if warm.Iterations > 1 {
		t.Fatalf("redundant cut cost %d iterations, want ≤ 1", warm.Iterations)
	}
}

func TestAppendRowCutsOptimum(t *testing.T) {
	// max x+y st x+y ≤ 12 → obj 12 at a vertex; the cut x ≤ 3 moves it.
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(2, 0, 10)
	y := p.AddCol(1, 0, 10)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 1}, 12)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-22) > 1e-9 { // x=10, y=2
		t.Fatalf("base solve: %v obj %v", res.Status, res.Obj)
	}
	inst.AppendRow([]int32{int32(x)}, []float64{1}, math.Inf(-1), 3)
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	if warm.Status != StatusOptimal || math.Abs(warm.Obj-15) > 1e-9 { // x=3, y=9
		t.Fatalf("warm after cut: %v obj %v, want 15", warm.Status, warm.Obj)
	}
	if warm.X[x] > 3+1e-9 {
		t.Fatalf("cut violated: x = %v", warm.X[x])
	}
}

func TestAppendRowInfeasibleCut(t *testing.T) {
	p := NewProblem()
	x := p.AddCol(1, 0, 5)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("base: %v", res.Status)
	}
	inst.AppendRow([]int32{int32(x)}, []float64{1}, 7, 9) // x ≥ 7 contradicts x ≤ 5
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	if warm.Status != StatusInfeasible {
		t.Fatalf("warm after contradictory row: %v, want infeasible", warm.Status)
	}
}

func TestAppendRowMergesDuplicates(t *testing.T) {
	p := NewProblem()
	x := p.AddCol(-1, 0, 10)
	p.AddLE([]int32{int32(x)}, []float64{1}, 8)
	inst := NewInstance(p)
	r := inst.AppendRow([]int32{int32(x), int32(x), int32(x)}, []float64{2, -1, 1}, math.Inf(-1), 6)
	idx, val := inst.rowData(r)
	if len(idx) != 1 || idx[0] != int32(x) || val[0] != 2 {
		t.Fatalf("merged row = %v %v, want [0] [2]", idx, val)
	}
	res := inst.Solve(&Options{})
	if math.Abs(res.Obj+3) > 1e-9 { // 2x ≤ 6
		t.Fatalf("obj %v, want -3", res.Obj)
	}
	if lb, ub := inst.RowBounds(r); !math.IsInf(lb, -1) || ub != 6 {
		t.Fatalf("RowBounds = [%v, %v]", lb, ub)
	}
}
