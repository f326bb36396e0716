package sparselu

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// allIdx returns the pattern listing every index below m.
func allIdx(m int) []int32 {
	nz := make([]int32, m)
	for i := range nz {
		nz[i] = int32(i)
	}
	return nz
}

// ftranAll and btranAll solve with every index in the input pattern — a
// right-hand side of unknown sparsity — and return the result's pattern.
func ftranAll(f *Factors, v []float64) []int32 { return f.Ftran(v, allIdx(len(v))) }
func btranAll(f *Factors, v []float64) []int32 { return f.Btran(v, allIdx(len(v))) }

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
		ftranAll(f, x)
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
		btranAll(f, y)
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
	ftranAll(f, nil)
	btranAll(f, nil)
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
			nz := ftranAll(f, alpha)
			pos := rep % m
			if math.Abs(alpha[pos]) < 1e-6 {
				continue // unlucky pivot; skip this replacement
			}
			f.Update(alpha, nz, pos)
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
		ftranAll(f, x1)
		ftranAll(fresh, x2)
		if d := maxDiff(x1, x2); d > 1e-6 {
			t.Fatalf("trial %d: eta ftran differs from refactorized by %v (etas=%d)", trial, d, f.NumEtas())
		}
		y1 := append([]float64(nil), b...)
		y2 := append([]float64(nil), b...)
		btranAll(f, y1)
		btranAll(fresh, y2)
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
	f.Update(alpha, allIdx(m), 4)

	clone := &Factors{}
	f.CopyInto(clone)
	if clone.NumEtas() != 1 || clone.EtaNNZ() != f.EtaNNZ() {
		t.Fatalf("clone eta state: %d etas, nnz %d", clone.NumEtas(), clone.EtaNNZ())
	}
	// Updating the clone must not leak into the original, and vice versa.
	clone.Update(alpha, allIdx(m), 5)
	f.Update(alpha, allIdx(m), 6)
	if f.NumEtas() != 2 || clone.NumEtas() != 2 {
		t.Fatalf("eta counts after divergent updates: f=%d clone=%d", f.NumEtas(), clone.NumEtas())
	}
	b := make([]float64, m)
	b[0] = 1
	x1 := append([]float64(nil), b...)
	ftranAll(clone, x1) // must not disturb f's scratch mid-use (separate buffers)
	x2 := append([]float64(nil), b...)
	ftranAll(f, x2)
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
	ftranAll(f1, x1)
	ftranAll(f2, x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("nondeterministic ftran at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// refFtran is the dense FTRAN the hyper-sparse kernel replaced: it walks
// every elimination step and every eta. TestTranMatchesDenseReference and
// FuzzTranMatchesDense hold Ftran to it bit for bit.
func refFtran(f *Factors, v []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		val := v[f.rowPiv[k]]
		if val == 0 {
			continue
		}
		for e := f.lptr[k]; e < f.lptr[k+1]; e++ {
			v[f.lrow[e]] -= f.lval[e] * val
		}
	}
	x := make([]float64, m)
	for k := m - 1; k >= 0; k-- {
		t := v[f.rowPiv[k]]
		if t != 0 {
			t /= f.udiag[k]
			for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
				v[f.rowPiv[f.urow[e]]] -= f.uval[e] * t
			}
		}
		x[k] = t
	}
	for k := 0; k < m; k++ {
		v[f.order[k]] = x[k]
	}
	for i := range f.etas {
		e := &f.etas[i]
		pv := v[e.r]
		if pv == 0 {
			continue
		}
		pv /= e.piv
		for t, ix := range f.etaIdx[e.off : e.off+e.n] {
			v[ix] -= f.etaVal[e.off+int32(t)] * pv
		}
		v[e.r] = pv
	}
}

// refBtran is the dense BTRAN the hyper-sparse kernel replaced: every eta
// transpose is a full dot product, and both triangular solves walk all m
// steps.
func refBtran(f *Factors, v []float64) {
	for i := len(f.etas) - 1; i >= 0; i-- {
		e := &f.etas[i]
		s := v[e.r]
		for t, ix := range f.etaIdx[e.off : e.off+e.n] {
			s -= f.etaVal[e.off+int32(t)] * v[ix]
		}
		v[e.r] = s / e.piv
	}
	m := f.m
	z := make([]float64, m)
	for k := 0; k < m; k++ {
		z[k] = v[f.order[k]]
	}
	for k := 0; k < m; k++ {
		t := z[k]
		if t == 0 {
			continue
		}
		t /= f.udiag[k]
		z[k] = t
		for e := f.urptr[k]; e < f.urptr[k+1]; e++ {
			z[f.urcol[e]] -= f.urval[e] * t
		}
	}
	for k := m - 1; k >= 0; k-- {
		t := z[k]
		v[f.rowPiv[k]] = t
		if t == 0 {
			continue
		}
		for e := f.lrptr[k]; e < f.lrptr[k+1]; e++ {
			z[f.lrcol[e]] -= f.lrval[e] * t
		}
	}
}

// tranMismatch compares a hyper-sparse solve (got, with its returned
// pattern nz) against the dense reference (want): every entry must match
// under math.Float64bits, with +0 and -0 counted equal, and nz must be
// strictly ascending and list every nonzero of got. It returns "" on a
// match and a description of the first difference otherwise.
func tranMismatch(got, want []float64, nz []int32) string {
	for t := 1; t < len(nz); t++ {
		if nz[t] <= nz[t-1] {
			return fmt.Sprintf("pattern not strictly ascending at %d: %d after %d", t, nz[t], nz[t-1])
		}
	}
	inNZ := make(map[int32]bool, len(nz))
	for _, i := range nz {
		inNZ[i] = true
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g == 0 && w == 0) {
			return fmt.Sprintf("entry %d = %v (%#x), dense reference %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if g != 0 && !inNZ[int32(i)] {
			return fmt.Sprintf("nonzero %v at %d missing from the returned pattern", g, i)
		}
	}
	return ""
}

// slackHeavyBasis builds a nonsingular m×m basis shaped like a simplex
// basis: most positions hold a slack (a signed unit column), the rest a
// sparse structural column, each pivotal on its own row of a random row
// permutation so the basis is not trivially triangular.
func slackHeavyBasis(rng *rand.Rand, m int) ([][]int32, [][]float64) {
	perm := rng.Perm(m)
	colIdx := make([][]int32, m)
	colVal := make([][]float64, m)
	for p := 0; p < m; p++ {
		colIdx[p] = []int32{int32(perm[p])}
		if rng.Float64() < 0.7 {
			colVal[p] = []float64{1 - 2*float64(rng.Intn(2))}
			continue
		}
		colVal[p] = []float64{2 + rng.Float64()}
		for n := 1 + rng.Intn(5); n > 0; n-- {
			colIdx[p] = append(colIdx[p], int32(rng.Intn(m)))
			colVal[p] = append(colVal[p], rng.NormFloat64())
		}
	}
	return colIdx, colVal
}

// sparseColumn draws a random entering column with up to 6 entries.
func sparseColumn(rng *rand.Rand, m int) ([]int32, []float64) {
	var idx []int32
	var val []float64
	for n := 1 + rng.Intn(6); n > 0; n-- {
		idx = append(idx, int32(rng.Intn(m)))
		val = append(val, rng.NormFloat64())
	}
	return idx, val
}

// addEtas takes count simplex-style pivots on f: a sparse entering column
// is FTRAN'd and replaces the position with the largest |alpha|. Each
// pivot's eta must hold exactly the entries a dense scan of alpha keeps, in
// ascending position order.
func addEtas(tb testing.TB, rng *rand.Rand, f *Factors, count int) {
	tb.Helper()
	m := f.M()
	alpha := make([]float64, m)
	nz := make([]int32, 0, m)
	for ; count > 0; count-- {
		clear(alpha)
		idx, val := sparseColumn(rng, m)
		for k, r := range idx {
			alpha[r] += val[k]
		}
		nz = f.Ftran(alpha, append(nz[:0], idx...))
		pos := 0
		for p := range alpha {
			if math.Abs(alpha[p]) > math.Abs(alpha[pos]) {
				pos = p
			}
		}
		if math.Abs(alpha[pos]) < 1e-3 {
			continue
		}
		f.Update(alpha, nz, pos)
		e := f.etas[len(f.etas)-1]
		got := f.etaIdx[e.off : e.off+e.n]
		var want []int32
		for p, v := range alpha {
			if p != pos && math.Abs(v) > dropTol {
				want = append(want, int32(p))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			tb.Fatalf("eta %d entries %v, dense scan of alpha keeps %v", len(f.etas)-1, got, want)
		}
	}
}

// checkTranAgainstRef runs unit, sparse and dense right-hand sides through
// f's Ftran and Btran and holds each result to the dense reference.
func checkTranAgainstRef(t *testing.T, name string, rng *rand.Rand, f *Factors) {
	t.Helper()
	m := f.M()
	v := make([]float64, m)
	ref := make([]float64, m)
	nz := make([]int32, 0, m)
	for _, rhs := range []string{"unit", "sparse", "dense"} {
		for _, solve := range []string{"ftran", "btran"} {
			clear(v)
			nz = nz[:0]
			switch rhs {
			case "unit":
				i := rng.Intn(m)
				v[i] = 1
				nz = append(nz, int32(i))
			case "sparse":
				idx, val := sparseColumn(rng, m)
				for k, i := range idx {
					v[i] += val[k]
				}
				nz = append(nz, idx...) // may repeat an index
			default:
				for i := range v {
					v[i] = rng.NormFloat64()
					nz = append(nz, int32(i))
				}
			}
			copy(ref, v)
			if solve == "ftran" {
				nz = f.Ftran(v, nz)
				refFtran(f, ref)
			} else {
				nz = f.Btran(v, nz)
				refBtran(f, ref)
			}
			if msg := tranMismatch(v, ref, nz); msg != "" {
				t.Fatalf("%s, m=%d, %d etas, %s %s: %s", name, m, f.NumEtas(), rhs, solve, msg)
			}
		}
	}
}

// TestTranMatchesDenseReference holds the hyper-sparse Ftran/Btran to the
// dense loops they replaced, bit for bit, on slack-heavy bases across the
// bitset word boundaries (m = 63, 64, 65) up to simplex-sized bases, with
// 0 to 150 etas, on factors reached through every producer —
// FactorizeInto, ExtendInto and CopyInto — and with destinations reused
// at a smaller and then a larger m.
func TestTranMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := NewWorkspace()
	fac, ext, cp := &Factors{}, &Factors{}, &Factors{}
	for _, m := range []int{1, 63, 64, 65, 400, 3200, 64, 400} {
		if testing.Short() && m > 400 {
			continue
		}
		for _, etas := range []int{0, 7, 150} {
			colIdx, colVal := slackHeavyBasis(rng, m)
			if err := FactorizeInto(fac, ws, m, colIdx, colVal); err != nil {
				t.Fatalf("m=%d: factorize: %v", m, err)
			}
			addEtas(t, rng, fac, etas)
			checkTranAgainstRef(t, "FactorizeInto", rng, fac)

			// A bordered extension by k rows of a basis that carries the
			// etas, then etas on the extension itself.
			k := 1 + rng.Intn(3)
			bIdx, bVal, diag := randBorder(rng, m, k)
			if err := fac.ExtendInto(ext, ws, k, bIdx, bVal, diag); err != nil {
				t.Fatalf("m=%d: extend: %v", m, err)
			}
			checkTranAgainstRef(t, "ExtendInto", rng, ext)
			addEtas(t, rng, ext, etas/2)
			checkTranAgainstRef(t, "ExtendInto+etas", rng, ext)

			fac.CopyInto(cp)
			checkTranAgainstRef(t, "CopyInto", rng, cp)
			addEtas(t, rng, cp, etas/3)
			checkTranAgainstRef(t, "CopyInto+etas", rng, cp)
		}
	}
}

// TestOrderByCountMatchesSliceStable holds the counting sort of
// FactorizeInto's elimination order to the stable sort it replaces:
// positions ordered by column entry count, ties in position order, on
// hand-made tables (m = 0 and 1, ties, empty columns, counts above m) and
// on random column sets.
func TestOrderByCountMatchesSliceStable(t *testing.T) {
	cols := func(counts ...int) [][]int32 {
		out := make([][]int32, len(counts))
		for p, c := range counts {
			out[p] = make([]int32, c)
		}
		return out
	}
	check := func(name string, colIdx [][]int32, cnt []int32) []int32 {
		t.Helper()
		m := len(colIdx)
		want := make([]int32, m)
		for p := range want {
			want[p] = int32(p)
		}
		sort.SliceStable(want, func(a, b int) bool { return len(colIdx[want[a]]) < len(colIdx[want[b]]) })
		got := make([]int32, m)
		cnt = orderByCount(got, cnt, colIdx)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: order %v, stable sort %v", name, got, want)
			}
		}
		return cnt
	}
	var cnt []int32
	for _, tc := range []struct {
		name   string
		counts []int
	}{
		{"m=0", nil},
		{"m=1", []int{1}},
		{"m=1 empty", []int{0}},
		{"ascending", []int{1, 2, 3, 4}},
		{"descending", []int{4, 3, 2, 1}},
		{"all tied", []int{2, 2, 2, 2, 2}},
		{"ties and empties", []int{3, 0, 1, 3, 0, 1, 2, 0}},
		{"counts above m", []int{5, 1, 7, 1}},
	} {
		cnt = check(tc.name, cols(tc.counts...), cnt)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		m := rng.Intn(60)
		counts := make([]int, m)
		for p := range counts {
			counts[p] = rng.Intn(1 + rng.Intn(m+1))
		}
		// Reused and fresh scratch alike.
		if trial%3 == 0 {
			cnt = nil
		}
		cnt = check("random", cols(counts...), cnt)
	}
}
