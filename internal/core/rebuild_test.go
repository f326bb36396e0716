package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// sameBits reports whether two float slices hold the same values bit for
// bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertSameModel requires two builds to hand the solver the same problem:
// every row with its key, coefficients and bounds, every column bound, the
// objective, the integrality markers, the lazy cut family and the
// registered pricers.
func assertSameModel(t *testing.T, got, want *Built) {
	t.Helper()
	gp, wp := got.Model.LP(), want.Model.LP()
	if gp.Sense != wp.Sense || gp.NumCols() != wp.NumCols() || gp.NumRows() != wp.NumRows() {
		t.Fatalf("shape: sense %v, %d cols, %d rows; want %v, %d, %d",
			gp.Sense, gp.NumCols(), gp.NumRows(), wp.Sense, wp.NumCols(), wp.NumRows())
	}
	if !sameBits(gp.Obj, wp.Obj) || math.Float64bits(gp.ObjOffset) != math.Float64bits(wp.ObjOffset) {
		t.Fatal("objective differs")
	}
	if !sameBits(gp.ColLB, wp.ColLB) || !sameBits(gp.ColUB, wp.ColUB) {
		t.Fatal("column bounds differ")
	}
	if !sameBits(gp.RowLB, wp.RowLB) || !sameBits(gp.RowUB, wp.RowUB) {
		t.Fatal("row bounds differ")
	}
	for i := 0; i < gp.NumRows(); i++ {
		if got.Model.RowKey(i) != want.Model.RowKey(i) {
			t.Fatalf("row %d: key %v, want %v", i, got.Model.RowKey(i), want.Model.RowKey(i))
		}
		gi, gv := gp.Row(i)
		wi, wv := wp.Row(i)
		if fmt.Sprint(gi) != fmt.Sprint(wi) || !sameBits(gv, wv) {
			t.Fatalf("row %d (%v) differs", i, want.Model.RowKey(i))
		}
	}
	if fmt.Sprint(got.Model.IntegerMask()) != fmt.Sprint(want.Model.IntegerMask()) {
		t.Fatal("integrality markers differ")
	}
	if got.PrecCutCandidates() != want.PrecCutCandidates() ||
		len(got.Model.Separators()) != len(want.Model.Separators()) ||
		len(got.Model.Pricers()) != len(want.Model.Pricers()) {
		t.Fatal("lazy cuts or pricers differ")
	}
	for k, sep := range want.Model.Separators() {
		gc, wc := got.Model.Separators()[k].(*precSeparator).cands, sep.(*precSeparator).cands
		for c := range wc {
			if fmt.Sprint(gc[c].Idx) != fmt.Sprint(wc[c].Idx) || !sameBits(gc[c].Val, wc[c].Val) ||
				math.Float64bits(gc[c].UB) != math.Float64bits(wc[c].UB) {
				t.Fatalf("lazy cut candidate %d differs", c)
			}
		}
	}
}

// TestRebuildCSigmaMatchesFresh rebuilds a model into the storage of a
// larger, different one — more requests, another objective, presolve off —
// and requires exactly the model a fresh BuildCSigma builds, under every
// cut mode and both flow modes. The rebuilt model's LP relaxation must
// also take the fresh one's simplex path to the same optimum.
func TestRebuildCSigmaMatchesFresh(t *testing.T) {
	scenario := func(n int, seed int64) (*Instance, BuildOptions) {
		cfg := workload.Default()
		cfg.NumRequests = n
		cfg.FlexibilityHr = 2
		sc := workload.Generate(cfg, seed)
		return &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon},
			BuildOptions{FixedMapping: sc.Mapping}
	}
	big, bigOpts := scenario(12, 1)
	small, smallOpts := scenario(5, 2)
	for _, fm := range []FlowMode{FlowArc, FlowPath} {
		for _, cm := range []CutMode{CutStatic, CutLazy, CutOff} {
			t.Run(fmt.Sprintf("%v/%v", fm, cm), func(t *testing.T) {
				prevOpts := bigOpts
				prevOpts.FlowMode, prevOpts.CutMode = fm, cm
				prevOpts.Objective, prevOpts.DisablePresolve = DisableLinks, true
				if fm == FlowArc {
					prevOpts.Objective = BalanceNodeLoad
				}
				prev := BuildCSigma(big, prevOpts)

				opts := smallOpts
				opts.FlowMode, opts.CutMode = fm, cm
				opts.ForceAccept = []bool{true, false, true}
				want := BuildCSigma(small, opts)
				got := RebuildCSigma(prev, small, opts)
				if got != prev {
					t.Fatal("RebuildCSigma did not rebuild into the Built it was given")
				}
				assertSameModel(t, got, want)

				gr, wr := got.Model.Relax(context.Background()), want.Model.Relax(context.Background())
				if gr.Status != model.StatusOptimal || math.Float64bits(gr.Obj) != math.Float64bits(wr.Obj) ||
					gr.LPIterations != wr.LPIterations {
					t.Fatalf("rebuilt relaxation %v obj %v in %d iterations; fresh %v obj %v in %d",
						gr.Status, gr.Obj, gr.LPIterations, wr.Status, wr.Obj, wr.LPIterations)
				}
			})
		}
	}
}
