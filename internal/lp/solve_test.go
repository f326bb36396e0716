package lp

import (
	"math"
	"testing"
)

// TestSolveEdgeCases runs lp.Solve on small LPs with degenerate structure —
// singleton and empty rows, fixed and empty columns, an unbounded ray, the
// maximize sense — and checks the verdict, the optimum, the named column
// values, primal feasibility and the KKT conditions on the problem as given.
func TestSolveEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		build  func() *Problem
		status Status
		obj    float64
		objTol float64
		x      []float64 // expected values, NaN = unchecked
		xTol   float64
	}{
		{
			// min x + y s.t. 2x = 6 (singleton equality), x + y ≥ 5.
			name: "SingletonRow",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 0, 10)
				y := p.AddCol(1, 0, 10)
				p.AddEQ([]int32{int32(x)}, []float64{2}, 6)
				p.AddGE([]int32{int32(x), int32(y)}, []float64{1, 1}, 5)
				return p
			},
			status: StatusOptimal, obj: 5, objTol: 1e-7,
			x: []float64{3, 2}, xTol: 1e-7,
		},
		{
			// Every column is pinned by a singleton row.
			name: "AllColumnsPinned",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(2, 0, 10)
				y := p.AddCol(-3, 0, 10)
				p.AddEQ([]int32{int32(x)}, []float64{1}, 4)
				p.AddEQ([]int32{int32(y)}, []float64{1}, 1)
				return p
			},
			status: StatusOptimal, obj: 5, objTol: 1e-9,
		},
		{
			// Two singleton rows force x to incompatible values.
			name: "InfeasibleSingleton",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 0, 10)
				p.AddEQ([]int32{int32(x)}, []float64{1}, 2)
				p.AddEQ([]int32{int32(x)}, []float64{1}, 3)
				return p
			},
			status: StatusInfeasible,
		},
		{
			// A row over a fixed column only; a wide row that never binds.
			name: "EmptyAndRedundantRows",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 2, 2) // fixed at 2
				y := p.AddCol(1, 0, 3)
				p.AddRow([]int32{int32(x)}, []float64{1}, 0, 5)
				p.AddRow([]int32{int32(x), int32(y)}, []float64{1, 1}, -100, 100)
				p.AddGE([]int32{int32(y)}, []float64{1}, 1)
				return p
			},
			status: StatusOptimal, obj: 3, objTol: 1e-7,
		},
		{
			// A row over a fixed column whose value violates it.
			name: "EmptyRowInfeasible",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 1, 1) // fixed at 1
				p.AddGE([]int32{int32(x)}, []float64{1}, 3)
				return p
			},
			status: StatusInfeasible,
		},
		{
			// y appears in no row: it must land on its objective-favored bound.
			name: "EmptyColumn",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 0, 10)
				p.AddCol(-2, 0, 7) // minimize −2y → ub
				p.AddGE([]int32{int32(x)}, []float64{1}, 4)
				return p
			},
			status: StatusOptimal, obj: 4 - 14, objTol: 1e-7,
			x: []float64{nan, 7}, xTol: 1e-9,
		},
		{
			// The favored bound of the empty column is infinite: the LP is
			// unbounded once feasibility is established.
			name: "UnboundedEmptyColumn",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddCol(1, 0, 1)
				p.AddCol(-1, 0, Inf)
				p.AddEQ([]int32{int32(x)}, []float64{1}, 1)
				return p
			},
			status: StatusUnbounded,
		},
		{
			// Favored bounds flip under Maximize.
			name: "MaximizeSense",
			build: func() *Problem {
				p := NewProblem()
				p.Sense = Maximize
				p.AddCol(3, 0, 5) // maximize 3x → ub
				y := p.AddCol(1, 0, 10)
				p.AddEQ([]int32{int32(y)}, []float64{2}, 8)
				return p
			},
			status: StatusOptimal, obj: 19, objTol: 1e-7,
			x: []float64{5, 4}, xTol: 1e-9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			res := Solve(p, nil)
			if res.Status != tc.status {
				t.Fatalf("status %v, want %v", res.Status, tc.status)
			}
			if tc.status != StatusOptimal {
				return
			}
			if math.Abs(res.Obj-tc.obj) > tc.objTol {
				t.Fatalf("obj %v, want %v", res.Obj, tc.obj)
			}
			for j, want := range tc.x {
				if !math.IsNaN(want) && math.Abs(res.X[j]-want) > tc.xTol {
					t.Fatalf("x = %v, want %v", res.X, tc.x)
				}
			}
			checkFeasible(t, p, res.X, 1e-6)
			checkKKT(t, p, res, 1e-6)
		})
	}
}
