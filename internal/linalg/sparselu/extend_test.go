package sparselu

import (
	"math"
	"math/rand"
	"testing"
)

// borderedColumns builds the explicit column form of [[B,0],[C,D]] from the
// base columns, border rows (over basis positions) and diagonal.
func borderedColumns(m, k int, colIdx [][]int32, colVal [][]float64,
	bIdx [][]int32, bVal [][]float64, diag []float64) ([][]int32, [][]float64) {
	mk := m + k
	outIdx := make([][]int32, mk)
	outVal := make([][]float64, mk)
	for p := 0; p < m; p++ {
		outIdx[p] = append(outIdx[p], colIdx[p]...)
		outVal[p] = append(outVal[p], colVal[p]...)
	}
	for i := 0; i < k; i++ {
		for e, p := range bIdx[i] {
			outIdx[p] = append(outIdx[p], int32(m+i))
			outVal[p] = append(outVal[p], bVal[i][e])
		}
		outIdx[m+i] = append(outIdx[m+i], int32(m+i))
		outVal[m+i] = append(outVal[m+i], diag[i])
	}
	return outIdx, outVal
}

// randBorder draws k sparse border rows over m basis positions.
func randBorder(rng *rand.Rand, m, k int) ([][]int32, [][]float64, []float64) {
	bIdx := make([][]int32, k)
	bVal := make([][]float64, k)
	diag := make([]float64, k)
	for i := 0; i < k; i++ {
		for p := 0; p < m; p++ {
			if rng.Float64() < 0.3 {
				bIdx[i] = append(bIdx[i], int32(p))
				bVal[i] = append(bVal[i], rng.NormFloat64())
			}
		}
		diag[i] = -1 // the slack coefficient of an appended LP row
	}
	return bIdx, bVal, diag
}

// checkAgainst verifies that f's Ftran/Btran agree with a fresh
// factorization of the explicit column form.
func checkAgainst(t *testing.T, trial int, f *Factors, m int, colIdx [][]int32, colVal [][]float64, rng *rand.Rand) {
	t.Helper()
	fresh, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatalf("trial %d: fresh factorization: %v", trial, err)
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	ftranAll(f, x1)
	ftranAll(fresh, x2)
	if d := maxDiff(x1, x2); d > 1e-8 {
		t.Fatalf("trial %d: extended ftran differs from fresh by %v", trial, d)
	}
	y1 := append([]float64(nil), b...)
	y2 := append([]float64(nil), b...)
	btranAll(f, y1)
	btranAll(fresh, y2)
	if d := maxDiff(y1, y2); d > 1e-8 {
		t.Fatalf("trial %d: extended btran differs from fresh by %v", trial, d)
	}
}

func TestExtendMatchesFreshFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(30)
		k := 1 + rng.Intn(5)
		colIdx, colVal := randBasis(rng, m, 0.2)
		f, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Half the trials extend a factorization that already carries eta
		// updates (the mid-solve case: pivots happened since refactorization).
		if trial%2 == 1 {
			applyRandomUpdates(t, rng, f, m, colIdx, colVal, 4)
		}
		bIdx, bVal, diag := randBorder(rng, m, k)
		g := &Factors{}
		if err := f.ExtendInto(g, ws, k, bIdx, bVal, diag); err != nil {
			t.Fatalf("trial %d: extend: %v", trial, err)
		}
		if g.M() != m+k {
			t.Fatalf("trial %d: M() = %d, want %d", trial, g.M(), m+k)
		}
		fullIdx, fullVal := borderedColumns(m, k, colIdx, colVal, bIdx, bVal, diag)
		checkAgainst(t, trial, g, m+k, fullIdx, fullVal, rng)

		// Updates must keep working on the extended factors.
		applyRandomUpdates(t, rng, g, m+k, fullIdx, fullVal, 3)
		checkAgainst(t, trial, g, m+k, fullIdx, fullVal, rng)

		// And a second extension must stack on top of the first.
		bIdx2, bVal2, diag2 := randBorder(rng, m+k, 2)
		g2 := &Factors{}
		if err := g.ExtendInto(g2, ws, 2, bIdx2, bVal2, diag2); err != nil {
			t.Fatalf("trial %d: second extend: %v", trial, err)
		}
		fullIdx2, fullVal2 := borderedColumns(m+k, 2, fullIdx, fullVal, bIdx2, bVal2, diag2)
		checkAgainst(t, trial, g2, m+k+2, fullIdx2, fullVal2, rng)
	}
}

// applyRandomUpdates replaces a few basis columns via eta updates, mirroring
// the replacements into the explicit column form.
func applyRandomUpdates(t *testing.T, rng *rand.Rand, f *Factors, m int, colIdx [][]int32, colVal [][]float64, count int) {
	t.Helper()
	for rep := 0; rep < count; rep++ {
		pos := rng.Intn(m)
		newIdx := []int32{}
		newVal := []float64{}
		for r := 0; r < m; r++ {
			v := rng.NormFloat64()
			if r == pos {
				v += 3 // keep the pivot position well-conditioned
			}
			if v != 0 {
				newIdx = append(newIdx, int32(r))
				newVal = append(newVal, v)
			}
		}
		alpha := make([]float64, m)
		for e, r := range newIdx {
			alpha[r] = newVal[e]
		}
		nz := ftranAll(f, alpha)
		if math.Abs(alpha[pos]) < 1e-6 {
			continue // unlucky pivot; skip this replacement
		}
		f.Update(alpha, nz, pos)
		colIdx[pos], colVal[pos] = newIdx, newVal
	}
}

func TestExtendReceiverUnmodified(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := 12
	colIdx, colVal := randBasis(rng, m, 0.25)
	f, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	before := append([]float64(nil), b...)
	ftranAll(f, before)

	bIdx, bVal, diag := randBorder(rng, m, 3)
	if err := f.ExtendInto(&Factors{}, NewWorkspace(), 3, bIdx, bVal, diag); err != nil {
		t.Fatal(err)
	}
	after := append([]float64(nil), b...)
	ftranAll(f, after)
	if d := maxDiff(before, after); d != 0 {
		t.Fatalf("receiver solve changed by %v after ExtendInto", d)
	}
	if f.M() != m {
		t.Fatalf("receiver dimension changed to %d", f.M())
	}
}

func TestExtendZeroDiagSingular(t *testing.T) {
	colIdx := [][]int32{{0}}
	colVal := [][]float64{{1}}
	f, err := Factorize(1, colIdx, colVal)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ExtendInto(&Factors{}, NewWorkspace(), 1, [][]int32{{0}}, [][]float64{{1}}, []float64{0}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestExtendEmptyBase(t *testing.T) {
	f, err := Factorize(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &Factors{}
	if err := f.ExtendInto(g, NewWorkspace(), 2, [][]int32{nil, nil}, [][]float64{nil, nil}, []float64{-1, -1}); err != nil {
		t.Fatal(err)
	}
	v := []float64{3, -4}
	ftranAll(g, v)
	if v[0] != -3 || v[1] != 4 {
		t.Fatalf("ftran on diag(-1) = %v, want [-3 4]", v)
	}
}
