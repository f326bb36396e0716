package lp

import (
	"math"
	"testing"

	"tvnep/internal/numtol"
)

// farkasCase builds an infeasible LP and solves it: the instance, its
// infeasible result, and the rows the result ran over (the problem's, then
// any appended ones) for the independent check.
type farkasCase struct {
	name  string
	sense Sense
	build func(t *testing.T) (*Instance, Result, []denseRow)
}

// denseRow is one row lb ≤ a·x ≤ ub in original units.
type denseRow struct {
	a      []float64
	lb, ub float64
}

// problemRows returns p's rows densely.
func problemRows(p *Problem) []denseRow {
	rows := make([]denseRow, p.NumRows())
	for i := range rows {
		idx, val := p.Row(i)
		a := make([]float64, p.NumCols())
		for k, j := range idx {
			a[j] += val[k]
		}
		rows[i] = denseRow{a: a, lb: p.RowLB[i], ub: p.RowUB[i]}
	}
	return rows
}

// newFarkasLP is min (or max) Σ x over the given rows, every column in
// [lb, ub].
func newFarkasLP(sense Sense, nCols int, lb, ub float64, rows []denseRow) *Problem {
	p := NewProblem()
	p.Sense = sense
	for j := 0; j < nCols; j++ {
		p.AddCol(1, lb, ub)
	}
	for _, r := range rows {
		var idx []int32
		var val []float64
		for j, v := range r.a {
			if v != 0 {
				idx, val = append(idx, int32(j)), append(val, v)
			}
		}
		p.AddRow(idx, val, r.lb, r.ub)
	}
	return p
}

var farkasCases = []farkasCase{
	{
		// Infeasible from the start: the cold dual phase 1 ends on it.
		name: "cold-phase-1", sense: Maximize,
		build: func(t *testing.T) (*Instance, Result, []denseRow) {
			p := newFarkasLP(Maximize, 3, 0, 1, []denseRow{
				{a: []float64{1, 1, 0}, lb: 3, ub: Inf},
				{a: []float64{1, -1, 1}, lb: -Inf, ub: 1},
			})
			inst := NewInstance(p)
			return inst, inst.Solve(nil), problemRows(p)
		},
	},
	{
		// Feasible until branching-style bound changes; the warm dual
		// restart proves it infeasible.
		name: "warm-bound-change", sense: Minimize,
		build: func(t *testing.T) (*Instance, Result, []denseRow) {
			p := newFarkasLP(Minimize, 3, 0, 4, []denseRow{
				{a: []float64{1, 2, 0}, lb: 2, ub: Inf},
				{a: []float64{0, 1, 1}, lb: -Inf, ub: 3},
				{a: []float64{1, 0, 1}, lb: 1, ub: 6},
			})
			inst := NewInstance(p)
			res := inst.Solve(nil)
			if res.Status != StatusOptimal {
				t.Fatalf("feasible LP: status %v", res.Status)
			}
			inst.CaptureFactors(&res, nil)
			inst.SetColBounds(0, 0, 0.5)
			inst.SetColBounds(1, 0, 0.5)
			warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
			if !warm.WarmUsed {
				t.Fatalf("the bound-change restart did not run warm")
			}
			return inst, warm, problemRows(p)
		},
	},
	{
		// A cut row appended after the optimum: the warm restart runs over
		// the extended basis.
		name: "appended-cut", sense: Maximize,
		build: func(t *testing.T) (*Instance, Result, []denseRow) {
			p := newFarkasLP(Maximize, 3, 0, 2, []denseRow{
				{a: []float64{1, 1, 1}, lb: -Inf, ub: 5},
				{a: []float64{1, -1, 0}, lb: -1, ub: 1},
			})
			inst := NewInstance(p)
			res := inst.Solve(nil)
			if res.Status != StatusOptimal {
				t.Fatalf("feasible LP: status %v", res.Status)
			}
			inst.CaptureFactors(&res, nil)
			cut := denseRow{a: []float64{1, 1, 0}, lb: 4.5, ub: Inf}
			inst.AppendRow([]int32{0, 1}, []float64{1, 1}, cut.lb, cut.ub)
			warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
			if !warm.WarmUsed {
				t.Fatalf("the cut restart did not run warm")
			}
			return inst, warm, append(problemRows(p), cut)
		},
	},
	{
		// Coefficients spread over seven orders of magnitude, so the
		// instance is equilibrated, and only the two rows together refute
		// x0 − x1 ≥ 1 ∧ x1 − x0 ≥ 1: the ray's entries carry different row
		// scales. The columns are bounded above only, so they start at
		// their upper bounds and the violated basic variable ends below
		// its lower bound.
		name: "scaled", sense: Maximize,
		build: func(t *testing.T) (*Instance, Result, []denseRow) {
			p := newFarkasLP(Maximize, 3, -Inf, 10, []denseRow{
				{a: []float64{1e4, -1e4, 0}, lb: 1e4, ub: Inf},
				{a: []float64{-1e-3, 1e-3, 0}, lb: 1e-3, ub: Inf},
				{a: []float64{1e-2, 0, 1e2}, lb: -Inf, ub: 1e3},
			})
			inst := NewInstance(p)
			if !inst.scaled {
				t.Fatalf("the instance was not equilibrated")
			}
			return inst, inst.Solve(nil), problemRows(p)
		},
	},
}

// farkasMargin is the independent check of a ray y, signed like the duals
// of a problem of the given sense: the minimum over the column box and the
// row bounds of Σ_j d_j·x_j + Σ_i y_i·s_i, with d_j = −Σ_i y_i·A_ij in the
// minimization sense. A positive value proves the rows infeasible, since
// the combination vanishes at every point whose s_i are its row
// activities.
func farkasMargin(inst *Instance, sense Sense, rows []denseRow, y []float64) float64 {
	sign := 1.0
	if sense == Maximize {
		sign = -1
	}
	term := func(c, lo, hi float64) float64 {
		if math.Abs(c) < 1e-12 {
			return 0
		}
		return math.Min(c*lo, c*hi)
	}
	margin := 0.0
	for j := 0; j < inst.NumCols(); j++ {
		d := 0.0
		for i, r := range rows {
			d -= sign * y[i] * r.a[j]
		}
		lb, ub := inst.ColBounds(j)
		margin += term(d, lb, ub)
	}
	for i, r := range rows {
		margin += term(sign*y[i], r.lb, r.ub)
	}
	return margin
}

// TestFarkasRayProvesInfeasibility checks the ray of infeasible results from
// every exit the dual simplex has — cold phase 1, a warm restart after a
// bound change, a warm restart over an appended cut, a scaled instance —
// against the rows it claims to refute, and its pricing promise: a
// zero-objective column can make the LP feasible only if its reduced cost
// against the ray improves.
func TestFarkasRayProvesInfeasibility(t *testing.T) {
	for _, tc := range farkasCases {
		t.Run(tc.name, func(t *testing.T) {
			inst, res, rows := tc.build(t)
			if res.Status != StatusInfeasible {
				t.Fatalf("status %v, want infeasible", res.Status)
			}
			y := inst.FarkasRay(&res, nil)
			if len(y) != len(rows) {
				t.Fatalf("ray %v over %d rows", y, len(rows))
			}
			if m := farkasMargin(inst, tc.sense, rows, y); !(m > 1e-9) {
				t.Fatalf("ray %v does not prove infeasibility: bounded combination %v", y, m)
			}

			// Every single-row column, either sign, objective 0.
			repaired := 0
			for i := range rows {
				for _, v := range []float64{1, -1} {
					rc := CandidateReducedCost(0, []int32{int32(i)}, []float64{v}, y)
					improves := rc < -numtol.PriceRedTol
					if tc.sense == Maximize {
						improves = rc > numtol.PriceRedTol
					}
					again, _, _ := tc.build(t)
					again.AppendColumn([]int32{int32(i)}, []float64{v}, 0, 1e9, 0)
					st := again.Solve(nil).Status
					switch {
					case st == StatusOptimal && !improves:
						t.Errorf("column %+g on row %d repairs the LP, yet its Farkas reduced cost %v does not improve", v, i, rc)
					case st == StatusOptimal:
						repaired++
					case st != StatusInfeasible:
						t.Errorf("column %+g on row %d: status %v", v, i, st)
					}
				}
			}
			if repaired == 0 {
				t.Errorf("no candidate column repaired the LP; the pricing half checks nothing")
			}
		})
	}
}

// TestFarkasRayOnlyWhenInfeasible pins the guard: no ray for an optimal
// result.
func TestFarkasRayOnlyWhenInfeasible(t *testing.T) {
	p := newFarkasLP(Minimize, 2, 0, 1, []denseRow{{a: []float64{1, 1}, lb: 1, ub: Inf}})
	inst := NewInstance(p)
	res := inst.Solve(nil)
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if y := inst.FarkasRay(&res, nil); y != nil {
		t.Fatalf("optimal result carries a ray %v", y)
	}
}
