package lp

import (
	"math"
	"math/rand"
	"testing"
)

// appendRandomCols draws extra columns with finite bounds (so appending them
// never unbounds the problem) and random coefficients over the existing rows.
func appendRandomCols(rng *rand.Rand, m, count int) (idxs [][]int32, vals [][]float64, lbs, ubs, objs []float64) {
	for c := 0; c < count; c++ {
		var idx []int32
		var val []float64
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.5 {
				idx = append(idx, int32(i))
				val = append(val, rng.NormFloat64())
			}
		}
		idxs = append(idxs, idx)
		vals = append(vals, val)
		lbs = append(lbs, 0)
		ubs = append(ubs, rng.Float64()*3)
		objs = append(objs, rng.NormFloat64())
	}
	return
}

// fullWithColumns rebuilds p plus the appended columns as one compiled
// problem: the cold-solve reference for the hot-restart tests.
func fullWithColumns(p *Problem, idxs [][]int32, vals [][]float64, lbs, ubs, objs []float64) *Problem {
	n := p.NumCols()
	full := NewProblem()
	full.Sense = p.Sense
	for j := 0; j < n; j++ {
		full.AddCol(p.Obj[j], p.ColLB[j], p.ColUB[j])
	}
	for c := range idxs {
		full.AddCol(objs[c], lbs[c], ubs[c])
	}
	for i := 0; i < p.NumRows(); i++ {
		ri, rv := p.Row(i)
		ri = append([]int32(nil), ri...)
		rv = append([]float64(nil), rv...)
		for c := range idxs {
			for k, r := range idxs[c] {
				if int(r) == i {
					ri = append(ri, int32(n+c))
					rv = append(rv, vals[c][k])
				}
			}
		}
		full.AddRow(ri, rv, p.RowLB[i], p.RowUB[i])
	}
	return full
}

// TestAppendColumnHotRestart is the core column-generation kernel test:
// solve, append columns, hot-restart from the old basis + factors, and
// require the same optimum as a cold solve of the full problem.
func TestAppendColumnHotRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(15)
		m := 1 + rng.Intn(15)
		p, _ := buildRandomLP(rng, n, m)
		m = p.NumRows()
		inst := NewInstance(p)
		res := inst.Solve(nil)
		inst.CaptureFactors(&res, nil)
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: base status %v", trial, res.Status)
		}

		count := 1 + rng.Intn(4)
		idxs, vals, lbs, ubs, objs := appendRandomCols(rng, m, count)
		for c := range idxs {
			if got := inst.AppendColumn(idxs[c], vals[c], lbs[c], ubs[c], objs[c]); got != n+c {
				t.Fatalf("trial %d: AppendColumn index %d, want %d", trial, got, n+c)
			}
		}
		if inst.NumCols() != n+count || inst.NumAppendedCols() != count {
			t.Fatalf("trial %d: column accounting off: %d/%d", trial, inst.NumCols(), inst.NumAppendedCols())
		}
		full := fullWithColumns(p, idxs, vals, lbs, ubs, objs)

		warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
		inst.CaptureFactors(&warm, nil)
		cold := Solve(full, nil)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.Status != StatusOptimal {
			continue
		}
		if d := math.Abs(warm.Obj - cold.Obj); d > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("trial %d: warm obj %v, cold obj %v (diff %v)", trial, warm.Obj, cold.Obj, d)
		}
		checkFeasible(t, full, warm.X, 1e-6)
		if !warm.WarmUsed || !warm.ColumnsRemapped {
			t.Fatalf("trial %d: warm provenance not stamped: used=%v remapped=%v",
				trial, warm.WarmUsed, warm.ColumnsRemapped)
		}

		// A second round on top of the first must chain (basis and factors
		// now include the first batch of appended columns).
		idxs2, vals2, lbs2, ubs2, objs2 := appendRandomCols(rng, m, 1)
		inst.AppendColumn(idxs2[0], vals2[0], lbs2[0], ubs2[0], objs2[0])
		full2 := fullWithColumns(p,
			append(append([][]int32(nil), idxs...), idxs2[0]),
			append(append([][]float64(nil), vals...), vals2[0]),
			append(append([]float64(nil), lbs...), lbs2[0]),
			append(append([]float64(nil), ubs...), ubs2[0]),
			append(append([]float64(nil), objs...), objs2[0]))
		warm2 := inst.Solve(&Options{WarmBasis: warm.Basis, WarmFactors: warm.Factors})
		cold2 := Solve(full2, nil)
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

// TestAppendColumnThenRow interleaves the two incremental interfaces: after
// cuts AND priced columns land on the same instance, a warm restart from a
// basis predating both must still match the cold solve of the full problem.
func TestAppendColumnThenRow(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	warmUsed := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(10)
		m := 1 + rng.Intn(10)
		p, xstar := buildRandomLP(rng, n, m)
		m = p.NumRows()
		inst := NewInstance(p)
		res := inst.Solve(nil)
		inst.CaptureFactors(&res, nil)
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: base status %v", trial, res.Status)
		}

		cIdx, cVal, cLB, cUB, cObj := appendRandomCols(rng, m, 1)
		inst.AppendColumn(cIdx[0], cVal[0], cLB[0], cUB[0], cObj[0])
		rIdx, rVal, rLB, rUB := appendRandomRows(rng, n, 1, xstar)
		inst.AppendRow(rIdx[0], rVal[0], rLB[0], rUB[0])

		full := fullWithColumns(p, cIdx, cVal, cLB, cUB, cObj)
		full.AddRow(rIdx[0], rVal[0], rLB[0], rUB[0])

		warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
		cold := Solve(full, nil)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if warm.WarmUsed {
			warmUsed++
		}
		if warm.Status != StatusOptimal {
			continue
		}
		if got, want := len(warm.Basis.Status), inst.NumCols()+inst.NumRows(); got != want {
			t.Fatalf("trial %d: basis holds %d statuses, want n+m = %d", trial, got, want)
		}
		if d := math.Abs(warm.Obj - cold.Obj); d > 1e-6*(1+math.Abs(cold.Obj)) {
			t.Fatalf("trial %d: warm obj %v, cold obj %v (diff %v)", trial, warm.Obj, cold.Obj, d)
		}
		checkFeasible(t, full, warm.X, 1e-6)
	}
	// When the appended column prices in and the appended row cuts off the
	// old point, neither restart applies and the solve goes cold; the rest
	// must restart warm from the remapped and extended basis.
	if warmUsed == 0 {
		t.Fatal("no trial restarted warm: the basis layout went unchecked")
	}
}

func TestAppendColumnImprovesObjective(t *testing.T) {
	// max 2x st x ≤ 4 → 8; a new column with profit 3 sharing the row prices
	// in and the hot restart must pivot it into the basis.
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(2, 0, 10)
	p.AddLE([]int32{int32(x)}, []float64{1}, 4)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal || math.Abs(res.Obj-8) > 1e-9 {
		t.Fatalf("base solve: %v obj %v", res.Status, res.Obj)
	}
	d := CandidateReducedCost(3, []int32{0}, []float64{1}, res.Duals)
	if d <= 0 {
		t.Fatalf("improving candidate has reduced cost %v, want > 0 for Maximize", d)
	}
	j := inst.AppendColumn([]int32{0}, []float64{1}, 0, math.Inf(1), 3)
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	if warm.Status != StatusOptimal || math.Abs(warm.Obj-12) > 1e-9 { // y=4, x=0
		t.Fatalf("warm after improving column: %v obj %v, want 12", warm.Status, warm.Obj)
	}
	if !warm.ColumnsRemapped {
		t.Fatal("ColumnsRemapped not stamped")
	}
	if math.Abs(warm.X[j]-4) > 1e-9 {
		t.Fatalf("appended column value %v, want 4", warm.X[j])
	}
}

func TestAppendColumnRedundantIsFree(t *testing.T) {
	// A column that prices out at the optimum must hot-restart through the
	// unchanged dual path in zero-to-one iterations.
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(2, 0, 10)
	p.AddLE([]int32{int32(x)}, []float64{1}, 4)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("base solve: %v", res.Status)
	}
	d := CandidateReducedCost(1, []int32{0}, []float64{1}, res.Duals)
	if d > -1e-9 {
		t.Fatalf("non-improving candidate has reduced cost %v, want < 0", d)
	}
	inst.AppendColumn([]int32{0}, []float64{1}, 0, math.Inf(1), 1)
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	if warm.Status != StatusOptimal || math.Abs(warm.Obj-8) > 1e-9 {
		t.Fatalf("warm after redundant column: %v obj %v, want 8", warm.Status, warm.Obj)
	}
	if warm.Iterations > 1 {
		t.Fatalf("redundant column cost %d iterations, want ≤ 1", warm.Iterations)
	}
}

func TestAppendColumnMergesDuplicates(t *testing.T) {
	p := NewProblem()
	x := p.AddCol(-1, 0, 10)
	p.AddLE([]int32{int32(x)}, []float64{1}, 8)
	inst := NewInstance(p)
	j := inst.AppendColumn([]int32{0, 0, 0}, []float64{2, -1, 1}, 0, 3, -3)
	idx, val := inst.colIdx[j], inst.colVal[j]
	if len(idx) != 1 || idx[0] != 0 || val[0] != 2 {
		t.Fatalf("merged column = %v %v, want [0] [2]", idx, val)
	}
	// min −x −3y st x + 2y ≤ 8, y ≤ 3: y=3 leaves x=2 → obj −11.
	res := inst.Solve(&Options{})
	if res.Status != StatusOptimal || math.Abs(res.Obj+11) > 1e-9 {
		t.Fatalf("solve: %v obj %v, want -11", res.Status, res.Obj)
	}
	if lb, ub := inst.ColBounds(j); lb != 0 || ub != 3 {
		t.Fatalf("ColBounds = [%v, %v]", lb, ub)
	}
}

// TestAppendColumnScaled exercises the appended-column equilibration path: a
// badly scaled compile triggers scaling, and appended columns must round-trip
// through the power-of-two column scale exactly like compiled ones.
func TestAppendColumnScaled(t *testing.T) {
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(1, 0, 1e6)
	y := p.AddCol(1e4, 0, 100)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1e-4, 1e3}, 500)
	inst := NewInstance(p)
	if scaled, _, _ := inst.ScalingStats(); !scaled {
		t.Fatal("instance unexpectedly unscaled; the test needs the scaled path")
	}
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("base solve: %v", res.Status)
	}
	// A high-profit column consuming the row resource prices in.
	j := inst.AppendColumn([]int32{0}, []float64{2e3}, 0, math.Inf(1), 5e4)
	warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	cold := inst.Solve(nil)
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("statuses: warm %v cold %v", warm.Status, cold.Status)
	}
	if d := math.Abs(warm.Obj - cold.Obj); d > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Fatalf("warm obj %v, cold obj %v", warm.Obj, cold.Obj)
	}
	if warm.X[j] <= 0 {
		t.Fatalf("scaled appended column stayed at zero, want it in the optimum")
	}
}
