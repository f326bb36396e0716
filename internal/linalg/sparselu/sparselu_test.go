package sparselu

import (
	"math"
	"math/rand"
	"testing"
)

// randBasis builds a random sparse nonsingular m×m basis in column form
// (diagonal entries force nonsingularity, off-diagonal density ~den).
func randBasis(rng *rand.Rand, m int, den float64) ([][]int32, [][]float64) {
	colIdx := make([][]int32, m)
	colVal := make([][]float64, m)
	for p := 0; p < m; p++ {
		for r := 0; r < m; r++ {
			switch {
			case r == p:
				colIdx[p] = append(colIdx[p], int32(r))
				colVal[p] = append(colVal[p], 2+rng.Float64())
			case rng.Float64() < den:
				colIdx[p] = append(colIdx[p], int32(r))
				colVal[p] = append(colVal[p], rng.NormFloat64())
			}
		}
	}
	return colIdx, colVal
}

// dense is a row-major dense matrix, the reference TestFtranBtranAgainstDense
// checks the sparse factorization against.
type dense struct {
	n    int
	data []float64 // data[i*n+j] = element (i,j)
}

func newDense(n int) *dense { return &dense{n: n, data: make([]float64, n*n)} }

func (d *dense) set(i, j int, v float64) { d.data[i*d.n+j] = v }

// denseLU is an LU factorization with partial pivoting, P·A = L·U, stored
// packed (unit lower triangle implicit).
type denseLU struct {
	n   int
	lu  []float64
	piv []int // row i of PA is row piv[i] of A
}

// factorizeDense computes the LU decomposition of a; a is not modified.
func factorizeDense(a *dense) (*denseLU, error) {
	n := a.n
	f := &denseLU{n: n, lu: append([]float64(nil), a.data...), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-13 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / lu[k*n+k]
			lu[i*n+k] = m
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return f, nil
}

// solve solves A·x = b.
func (f *denseLU) solve(b, x []float64) {
	n, lu := f.n, f.lu
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= lu[i*n+j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= lu[i*n+j] * x[j]
		}
		x[i] /= lu[i*n+i]
	}
}

func TestLUSolveKnown(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3
	a := newDense(2)
	copy(a.data, []float64{2, 1, 1, 3})
	f, err := factorizeDense(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.solve([]float64{5, 10}, x)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solve = %v, want [1 3]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := newDense(2)
	copy(a.data, []float64{1, 2, 2, 4})
	if _, err := factorizeDense(a); err != ErrSingular {
		t.Fatalf("factorizeDense singular = %v, want ErrSingular", err)
	}
}

// toDense expands a column-form basis into a dense matrix.
func toDense(m int, colIdx [][]int32, colVal [][]float64) *dense {
	d := newDense(m)
	for p := 0; p < m; p++ {
		for k, r := range colIdx[p] {
			d.set(int(r), p, colVal[p][k])
		}
	}
	return d
}

func maxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestFtranBtranAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(40)
		colIdx, colVal := randBasis(rng, m, 0.15)
		f, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dense := toDense(m, colIdx, colVal)
		lu, err := factorizeDense(dense)
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		// FTRAN: B·x = b.
		b := make([]float64, m)
		for i := range b {
			if rng.Float64() < 0.5 {
				b[i] = rng.NormFloat64()
			}
		}
		x := append([]float64(nil), b...)
		f.Ftran(x)
		want := make([]float64, m)
		lu.solve(b, want)
		if d := maxDiff(x, want); d > 1e-9 {
			t.Fatalf("trial %d: ftran differs from dense by %v", trial, d)
		}
		// BTRAN: Bᵀ·y = c ⇔ B·x = c on the transposed matrix.
		c := make([]float64, m)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		y := append([]float64(nil), c...)
		f.Btran(y)
		// Verify Bᵀ·y = c directly.
		chk := make([]float64, m)
		for p := 0; p < m; p++ {
			s := 0.0
			for k, r := range colIdx[p] {
				s += colVal[p][k] * y[r]
			}
			chk[p] = s
		}
		if d := maxDiff(chk, c); d > 1e-8 {
			t.Fatalf("trial %d: btran residual %v", trial, d)
		}
	}
}

func TestSingular(t *testing.T) {
	// Column 1 is empty → structurally singular.
	colIdx := [][]int32{{0}, nil}
	colVal := [][]float64{{1}, nil}
	if _, err := Factorize(2, colIdx, colVal); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Two identical columns → numerically singular.
	colIdx = [][]int32{{0, 1}, {0, 1}}
	colVal = [][]float64{{1, 2}, {1, 2}}
	if _, err := Factorize(2, colIdx, colVal); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestEmpty(t *testing.T) {
	f, err := Factorize(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Ftran(nil)
	f.Btran(nil)
}

func TestEtaUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(30)
		colIdx, colVal := randBasis(rng, m, 0.2)
		f, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Apply a handful of column replacements via eta updates, mirroring
		// them in the explicit column form.
		for rep := 0; rep < 5; rep++ {
			// Random replacement column (dense-ish so pivots stay safe).
			newIdx := []int32{}
			newVal := []float64{}
			for r := 0; r < m; r++ {
				v := rng.NormFloat64()
				if r == rep%m {
					v += 3 // keep the pivot position well-conditioned
				}
				if v != 0 {
					newIdx = append(newIdx, int32(r))
					newVal = append(newVal, v)
				}
			}
			// alpha = B⁻¹·a via the current factors.
			alpha := make([]float64, m)
			for k, r := range newIdx {
				alpha[r] = newVal[k]
			}
			f.Ftran(alpha)
			pos := rep % m
			if math.Abs(alpha[pos]) < 1e-6 {
				continue // unlucky pivot; skip this replacement
			}
			f.Update(alpha, pos)
			colIdx[pos], colVal[pos] = newIdx, newVal
		}
		// The eta-updated factors must agree with a fresh factorization of
		// the current basis.
		fresh, err := Factorize(m, colIdx, colVal)
		if err != nil {
			t.Fatalf("trial %d refactorize: %v", trial, err)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1 := append([]float64(nil), b...)
		x2 := append([]float64(nil), b...)
		f.Ftran(x1)
		fresh.Ftran(x2)
		if d := maxDiff(x1, x2); d > 1e-6 {
			t.Fatalf("trial %d: eta ftran differs from refactorized by %v (etas=%d)", trial, d, f.NumEtas())
		}
		y1 := append([]float64(nil), b...)
		y2 := append([]float64(nil), b...)
		f.Btran(y1)
		fresh.Btran(y2)
		if d := maxDiff(y1, y2); d > 1e-6 {
			t.Fatalf("trial %d: eta btran differs from refactorized by %v", trial, d)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := 12
	colIdx, colVal := randBasis(rng, m, 0.3)
	f, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatal(err)
	}
	alpha := make([]float64, m)
	for i := range alpha {
		alpha[i] = rng.NormFloat64()
	}
	alpha[4] = 2
	f.Update(alpha, 4)

	clone := &Factors{}
	f.CopyInto(clone)
	if clone.NumEtas() != 1 || clone.EtaNNZ() != f.EtaNNZ() {
		t.Fatalf("clone eta state: %d etas, nnz %d", clone.NumEtas(), clone.EtaNNZ())
	}
	// Updating the clone must not leak into the original, and vice versa.
	clone.Update(alpha, 5)
	f.Update(alpha, 6)
	if f.NumEtas() != 2 || clone.NumEtas() != 2 {
		t.Fatalf("eta counts after divergent updates: f=%d clone=%d", f.NumEtas(), clone.NumEtas())
	}
	b := make([]float64, m)
	b[0] = 1
	x1 := append([]float64(nil), b...)
	clone.Ftran(x1) // must not disturb f's scratch mid-use (separate buffers)
	x2 := append([]float64(nil), b...)
	f.Ftran(x2)
	if f.etas[1].r == clone.etas[1].r {
		t.Fatal("divergent etas alias")
	}
}

func TestDeterministicFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := 25
	colIdx, colVal := randBasis(rng, m, 0.2)
	f1, err1 := Factorize(m, colIdx, colVal)
	f2, err2 := Factorize(m, colIdx, colVal)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	f1.Ftran(x1)
	f2.Ftran(x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("nondeterministic ftran at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}
