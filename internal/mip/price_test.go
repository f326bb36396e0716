package mip

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// colGenProblem builds a randomized capacity-release model with a genuine
// master/pricing split: binary facilities y_j (static, integer) pay an
// opening cost f_j and release capacity u_j on their linking row
// Σ_p a_{jp}·λ_p − u_j·y_j ≤ 0, while continuous pattern columns λ_p earn a
// profit over 1–3 facilities' capacity. The LP relaxation opens facilities
// fractionally to exactly match pattern usage, so branch and bound has to
// work for its optimum — at different y fixings different patterns price in,
// which is what exercises pricing in the tree, not just at the root.
//
// When full is true every pattern is emitted as a static LP column and the
// returned lazy list is empty; otherwise the LP holds only the facilities
// and every pattern comes back as a lazy Column for a Pricer to offer.
func colGenProblem(seed int64, nFac, nPat int, full bool) (*Problem, []Column) {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	caps := make([]float64, nFac)
	for j := 0; j < nFac; j++ {
		caps[j] = 2 + rng.Float64()*6
		p.AddCol(-(1 + rng.Float64()*3), 0, 1) // opening cost
	}
	var pats []Column
	for q := 0; q < nPat; q++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var idx []int32
		var val []float64
		for len(idx) < k {
			j := rng.Intn(nFac)
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, int32(j))
			val = append(val, 0.5+rng.Float64()*1.5)
		}
		pats = append(pats, Column{Idx: idx, Val: val, LB: 0,
			UB: 1 + rng.Float64()*3, Obj: 1 + rng.Float64()*4})
	}
	var lazy []Column
	patCol := make([]int32, len(pats))
	for q, c := range pats {
		if full {
			patCol[q] = int32(p.AddCol(c.Obj, c.LB, c.UB))
		} else {
			lazy = append(lazy, c)
		}
	}
	for j := 0; j < nFac; j++ {
		idx := []int32{int32(j)}
		val := []float64{-caps[j]}
		if full {
			for q, c := range pats {
				for t, i := range c.Idx {
					if int(i) == j {
						idx = append(idx, patCol[q])
						val = append(val, c.Val[t])
					}
				}
			}
		}
		p.AddLE(idx, val, 0)
	}
	mp := NewProblem(p)
	for j := 0; j < nFac; j++ {
		mp.SetInteger(j)
	}
	return mp, lazy
}

// patternPricer is the test Pricer: it holds the full formulation's lazy
// pattern columns and returns the ones with improving reduced cost at the
// dual point — a pure function of duals, as the contract requires. Appended
// columns are re-offered freely; the pool's dedup absorbs them.
type patternPricer struct {
	cols     []Column
	minimize bool
}

func (pp *patternPricer) Price(duals, x []float64) []Column {
	var out []Column
	for _, c := range pp.cols {
		d := lp.CandidateReducedCost(c.Obj, c.Idx, c.Val, duals)
		if pp.minimize {
			d = -d
		}
		if d > numtol.PriceRedTol {
			out = append(out, c)
		}
	}
	return out
}

// TestPricingMatchesStaticSolve is the correctness anchor: solving the
// restricted master with a Pricer must reach exactly the optimum of the full
// statically built formulation, because pricing to convergence closes the
// restricted relaxation at every node. Checked across shapes and both
// optimization senses.
func TestPricingMatchesStaticSolve(t *testing.T) {
	shapes := []struct {
		seed       int64
		nFac, nPat int
	}{
		{3, 4, 12}, {7, 5, 20}, {11, 6, 30}, {19, 3, 8}, {23, 8, 40},
	}
	sawTreeCols := false
	for _, sh := range shapes {
		full, _ := colGenProblem(sh.seed, sh.nFac, sh.nPat, true)
		restricted, lazy := colGenProblem(sh.seed, sh.nFac, sh.nPat, false)
		want := Solve(context.Background(), full, nil)
		if want.Status != StatusOptimal {
			t.Fatalf("seed %d: full status %v", sh.seed, want.Status)
		}
		got := Solve(context.Background(), restricted, &Options{
			Pricers: []Pricer{&patternPricer{cols: lazy}},
		})
		if got.Status != StatusOptimal {
			t.Fatalf("seed %d: priced status %v", sh.seed, got.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: priced obj %v differs from static %v", sh.seed, got.Obj, want.Obj)
		}
		if got.Columns.ColsAtRoot != restricted.LP.NumCols() {
			t.Errorf("seed %d: ColsAtRoot %d, want %d", sh.seed, got.Columns.ColsAtRoot, restricted.LP.NumCols())
		}
		if got.Columns.PricedCols != len(got.AppliedColumns) {
			t.Errorf("seed %d: PricedCols %d != len(AppliedColumns) %d",
				sh.seed, got.Columns.PricedCols, len(got.AppliedColumns))
		}
		if got.Columns.PricedCols == 0 {
			t.Errorf("seed %d: no column priced in; the shape no longer exercises pricing", sh.seed)
		}
		if got.Columns.Rounds > 1 {
			sawTreeCols = true
		}
		// Validity half of the Pricer contract, end to end: every appended
		// column must be one of the full formulation's pattern columns.
		known := map[string]bool{}
		for _, c := range lazy {
			o := colOp(c)
			if o.idx, o.val = lp.Canonical(o.idx, o.val); len(o.idx) > 0 {
				known[o.key()] = true
			}
		}
		for k, c := range got.AppliedColumns {
			if !known[columnKey(c)] {
				t.Errorf("seed %d: applied column %d is not a formulation column", sh.seed, k)
			}
		}
	}
	if !sawTreeCols {
		t.Error("no shape needed more than one pricing round; the cases are too easy")
	}
}

// TestPricingSmallBatchConverges forces many rounds through PriceBatch=1 and
// still must land on the same optimum, with one round per appended column.
func TestPricingSmallBatchConverges(t *testing.T) {
	full, _ := colGenProblem(7, 5, 20, true)
	restricted, lazy := colGenProblem(7, 5, 20, false)
	want := Solve(context.Background(), full, nil)
	got := Solve(context.Background(), restricted, &Options{
		Pricers:    []Pricer{&patternPricer{cols: lazy}},
		PriceBatch: 1,
	})
	if got.Status != StatusOptimal {
		t.Fatalf("status %v", got.Status)
	}
	if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
		t.Errorf("obj %v differs from static %v", got.Obj, want.Obj)
	}
	if got.Columns.Rounds != got.Columns.PricedCols {
		t.Errorf("batch=1 appended %d columns in %d rounds", got.Columns.PricedCols, got.Columns.Rounds)
	}
}

// TestParallelDeterminismWithPricing extends the bit-identical guarantee to
// column generation, alone and interleaved with lazy cuts: pricing runs only
// on the committer and workers replay the committed op log in order, so the
// committed result, the column trajectory and the cut trajectory must all be
// independent of the worker count.
func TestParallelDeterminismWithPricing(t *testing.T) {
	shapes := []struct {
		name       string
		seed       int64
		nFac, nPat int
		withCuts   bool
	}{
		{"pricing", 7, 5, 20, false},
		{"pricing-wide", 23, 8, 40, false},
		{"pricing+cuts", 11, 6, 30, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var base Result
			for _, w := range []int{1, 2, 4, 8} {
				prob, lazy := colGenProblem(sh.seed, sh.nFac, sh.nPat, false)
				o := &Options{
					Workers: w,
					Pricers: []Pricer{&patternPricer{cols: lazy}},
				}
				if sh.withCuts {
					o.Separators = []Separator{&coverSeparator{prob: prob}}
				}
				res := Solve(context.Background(), prob, o)
				if res.Status != StatusOptimal {
					t.Fatalf("workers=%d: status %v", w, res.Status)
				}
				if w == 1 {
					base = res
					continue
				}
				assertBitIdentical(t, sh.name, base, res, 1, w)
				if res.Columns != base.Columns {
					t.Errorf("column stats differ between 1 and %d workers: %+v vs %+v", w, base.Columns, res.Columns)
				}
				if !colsEqual(res.AppliedColumns, base.AppliedColumns) {
					t.Errorf("applied columns differ between 1 and %d workers", w)
				}
				if res.Cuts != base.Cuts {
					t.Errorf("cut stats differ between 1 and %d workers", w)
				}
				if !reflect.DeepEqual(res.AppliedCuts, base.AppliedCuts) {
					t.Errorf("applied cuts differ between 1 and %d workers", w)
				}
			}
		})
	}
}

// colsEqual compares applied-column lists entry by entry on the exact key.
func colsEqual(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if columnKey(a[k]) != columnKey(b[k]) {
			return false
		}
	}
	return true
}

// columnKey is the pool key of an already-canonical column.
func columnKey(c Column) string {
	o := colOp(c)
	return o.key()
}
