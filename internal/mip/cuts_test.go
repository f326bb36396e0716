package mip

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
)

// coverSeparator is the test Separator: for every finite ≤-capacity row with
// positive coefficients over integer 0/1 columns it greedily builds a cover
// S (columns in decreasing fractional value until the weights exceed the
// capacity) and returns the cover inequality Σ_{j∈S} x_j ≤ |S|−1. The cut is
// globally valid — all coefficients are positive, so setting every column of
// S to 1 would exceed the capacity — and the construction is a pure function
// of x with an index tie-break, as the Separator contract requires.
type coverSeparator struct {
	prob *Problem
}

func (cs *coverSeparator) Separate(x []float64) []Cut {
	const eps = 1e-9
	var cuts []Cut
	p := cs.prob.LP
	for i := 0; i < p.NumRows(); i++ {
		ub := p.RowUB[i]
		if math.IsInf(ub, 1) || !math.IsInf(p.RowLB[i], -1) {
			continue
		}
		idx, val := p.Row(i)
		usable := len(idx) > 0
		for k, j := range idx {
			if val[k] <= 0 || !cs.prob.Integer[j] {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		ord := make([]int, len(idx))
		for k := range ord {
			ord[k] = k
		}
		sort.Slice(ord, func(a, b int) bool {
			xa, xb := x[idx[ord[a]]], x[idx[ord[b]]]
			if xa != xb {
				return xa > xb
			}
			return idx[ord[a]] < idx[ord[b]]
		})
		w, lhs := 0.0, 0.0
		var cover []int32
		for _, k := range ord {
			w += val[k]
			lhs += x[idx[k]]
			cover = append(cover, idx[k])
			if w > ub+eps {
				break
			}
		}
		if w <= ub+eps || len(cover) < 2 {
			continue // the whole row fits: no cover exists
		}
		if lhs <= float64(len(cover)-1)+eps {
			continue // cover found but not violated at x
		}
		ones := make([]float64, len(cover))
		for k := range ones {
			ones[k] = 1
		}
		cuts = append(cuts, Cut{
			Idx: cover, Val: ones,
			LB: math.Inf(-1), UB: float64(len(cover) - 1),
		})
	}
	return cuts
}

// TestLazyCutsMatchPlainSolve: separation must never change the certified
// optimum — cuts only tighten the relaxation. Checked across knapsack shapes
// that actually trigger cover cuts.
func TestLazyCutsMatchPlainSolve(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-le", randKnapsack(5, 22, 30, false)},
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"multiknapsack", multiKnapsack(3, 30, 10)},
		{"multiknapsack-2", multiKnapsack(17, 24, 6)},
	}
	sawCuts := false
	for _, tc := range cases {
		plain := Solve(context.Background(), tc.prob, nil)
		if plain.Status != StatusOptimal {
			t.Fatalf("%s: plain status %v", tc.name, plain.Status)
		}
		lazy := Solve(context.Background(), tc.prob, &Options{
			Separators: []Separator{&coverSeparator{prob: tc.prob}},
		})
		if lazy.Status != StatusOptimal {
			t.Fatalf("%s: lazy status %v", tc.name, lazy.Status)
		}
		if d := math.Abs(lazy.Obj - plain.Obj); d > 1e-6*(1+math.Abs(plain.Obj)) {
			t.Errorf("%s: lazy obj %v differs from plain %v", tc.name, lazy.Obj, plain.Obj)
		}
		if lazy.Cuts.RowsAtRoot != tc.prob.LP.NumRows() {
			t.Errorf("%s: RowsAtRoot = %d, want %d", tc.name, lazy.Cuts.RowsAtRoot, tc.prob.LP.NumRows())
		}
		if lazy.Cuts.SeparatedRows != len(lazy.AppliedCuts) {
			t.Errorf("%s: SeparatedRows %d != len(AppliedCuts) %d", tc.name, lazy.Cuts.SeparatedRows, len(lazy.AppliedCuts))
		}
		if lazy.Cuts.SeparatedRows > 0 {
			sawCuts = true
			// The incumbent must satisfy every applied cut: that is the
			// validity half of the Separator contract, checked end to end.
			for k, c := range lazy.AppliedCuts {
				if v := rowViolation(c, lazy.X); v > 1e-6 {
					t.Errorf("%s: incumbent violates applied cut %d by %v", tc.name, k, v)
				}
			}
		}
	}
	if !sawCuts {
		t.Fatal("no test case triggered separation; the cases no longer exercise the cut path")
	}
}

// TestParallelDeterminismWithCuts extends the tentpole determinism guarantee
// to lazy separation: with separators registered, the committed result AND
// the full cut trajectory (stats and applied rows) must be bit-identical for
// any worker count, because separation runs only on the committer against
// deterministic fractional points.
func TestParallelDeterminismWithCuts(t *testing.T) {
	cases := []struct {
		name string
		prob *Problem
	}{
		{"knapsack-eq", randKnapsack(9, 18, 24, true)},
		{"multiknapsack", multiKnapsack(3, 22, 6)},
		{"multiknapsack-deep", multiKnapsack(7, 28, 8)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base Result
			for _, w := range []int{1, 2, 4, 8} {
				res := Solve(context.Background(), tc.prob, &Options{
					Workers:    w,
					Separators: []Separator{&coverSeparator{prob: tc.prob}},
				})
				if res.Status != StatusOptimal {
					t.Fatalf("workers=%d: status %v", w, res.Status)
				}
				if w == 1 {
					base = res
					continue
				}
				assertBitIdentical(t, tc.name, base, res, 1, w)
				if res.Cuts != base.Cuts {
					t.Errorf("cut stats differ between 1 and %d workers: %+v vs %+v", w, base.Cuts, res.Cuts)
				}
				if !reflect.DeepEqual(res.AppliedCuts, base.AppliedCuts) {
					t.Errorf("applied cut rows differ between 1 and %d workers", w)
				}
			}
		})
	}
}

// TestCutRoundsDisabled: negative round budgets must turn separation off
// even with separators registered.
func TestCutRoundsDisabled(t *testing.T) {
	prob := multiKnapsack(3, 30, 10)
	res := Solve(context.Background(), prob, &Options{
		Separators:    []Separator{&coverSeparator{prob: prob}},
		RootCutRounds: -1,
		TreeCutRounds: -1,
	})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Cuts.SeparatedRows != 0 || res.Cuts.Offered != 0 {
		t.Fatalf("separation ran with negative round budgets: %+v", res.Cuts)
	}
}
