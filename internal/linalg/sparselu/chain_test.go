package sparselu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestExtendLongChain grows one factorization through 60 bordered
// extensions — the lazy-cut hot-restart pattern taken to an extreme — using
// the same two-buffer ExtendInto ping-pong the simplex solver runs, and
// re-verifies FTRAN/BTRAN against a fresh factorization of the explicit
// bordered matrix after every step. Eta updates are replayed periodically so
// the chain also covers extending mid-solve factors (pivots taken since the
// last refactorization).
func TestExtendLongChain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := 12
	colIdx, colVal := randBasis(rng, m, 0.25)
	cur, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatalf("base factorization: %v", err)
	}
	spare := &Factors{}
	ws := NewWorkspace()
	const chain = 60
	for step := 0; step < chain; step++ {
		k := 1
		if step%7 == 3 {
			k = 2 // occasional multi-row batch, as cut separation appends them
		}
		bIdx, bVal, diag := randBorder(rng, m, k)
		if err := cur.ExtendInto(spare, ws, k, bIdx, bVal, diag); err != nil {
			t.Fatalf("step %d: extend: %v", step, err)
		}
		cur, spare = spare, cur
		colIdx, colVal = borderedColumns(m, k, colIdx, colVal, bIdx, bVal, diag)
		m += k
		if cur.M() != m {
			t.Fatalf("step %d: M() = %d, want %d", step, cur.M(), m)
		}
		checkAgainst(t, step, cur, m, colIdx, colVal, rng)
		if step%10 == 9 {
			applyRandomUpdates(t, rng, cur, m, colIdx, colVal, 3)
			checkAgainst(t, step, cur, m, colIdx, colVal, rng)
		}
	}
}

// TestExtendIntoAllocFree pins the hot-restart allocation contract: once the
// destination factors and workspace have been through one extension of the
// same shape, ExtendInto must not allocate — even when the source carries an
// eta file, which is the common mid-solve restart case.
func TestExtendIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const m = 24
	colIdx, colVal := randBasis(rng, m, 0.25)
	f, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	applyRandomUpdates(t, rng, f, m, colIdx, colVal, 3)
	bIdx, bVal, diag := randBorder(rng, m, 2)
	dst, ws := &Factors{}, NewWorkspace()
	if err := f.ExtendInto(dst, ws, 2, bIdx, bVal, diag); err != nil {
		t.Fatalf("warm-up extend: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.ExtendInto(dst, ws, 2, bIdx, bVal, diag); err != nil {
			t.Fatalf("extend: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtendInto with warmed destination allocates %v per call, want 0", allocs)
	}
}

// TestTranAllocFree pins the kernel allocation contract: FTRAN/BTRAN work
// entirely in caller and factor-owned scratch, and once the eta arenas have
// warmed up, neither do eta updates — on plain factors and on factors
// produced by ExtendInto, and for a unit BTRAN through a non-empty eta file.
func TestTranAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const m = 96
	colIdx, colVal := slackHeavyBasis(rng, m)
	base, err := Factorize(m, colIdx, colVal)
	if err != nil {
		t.Fatalf("factorize: %v", err)
	}
	addEtas(t, rng, base, 5)
	bIdx, bVal, diag := randBorder(rng, m, 2)
	ext := &Factors{}
	if err := base.ExtendInto(ext, NewWorkspace(), 2, bIdx, bVal, diag); err != nil {
		t.Fatalf("extend: %v", err)
	}
	for _, src := range []*Factors{base, ext} {
		n := src.M()
		cols := make([][]int32, 8)
		vals := make([][]float64, 8)
		for i := range cols {
			cols[i], vals[i] = sparseColumn(rng, n)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		all := allIdx(n)
		v := make([]float64, n)
		nz := make([]int32, 0, n)
		work := &Factors{}
		// One simplex-like round on a fresh copy: sparse FTRANs with eta
		// updates, a unit BTRAN through the eta file, then a dense pair.
		round := func() {
			src.CopyInto(work)
			for i := range cols {
				clear(v)
				for k, r := range cols[i] {
					v[r] += vals[i][k]
				}
				nz = work.Ftran(v, append(nz[:0], cols[i]...))
				pos := 0
				for p := range v {
					if math.Abs(v[p]) > math.Abs(v[pos]) {
						pos = p
					}
				}
				work.Update(v, nz, pos)
			}
			clear(v)
			v[n/2] = 1
			work.Btran(v, append(nz[:0], int32(n/2)))
			copy(v, b)
			work.Ftran(v, append(nz[:0], all...))
			work.Btran(v, append(nz[:0], all...))
		}
		round()
		if work.NumEtas() <= src.NumEtas() {
			t.Fatalf("m=%d: no eta update taken", n)
		}
		if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
			t.Fatalf("m=%d: Ftran+Update+Btran allocate %v per round, want 0", n, allocs)
		}
	}
}

// benchTran times one hyper-sparse solve kind at m ≈ 400 and m ≈ 3,200 on a
// slack-heavy basis carrying 80 etas.
func benchTran(b *testing.B, solve func(f *Factors, rng *rand.Rand, v []float64, nz []int32) []int32) {
	for _, m := range []int{400, 3200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(43))
			colIdx, colVal := slackHeavyBasis(rng, m)
			f, err := Factorize(m, colIdx, colVal)
			if err != nil {
				b.Fatal(err)
			}
			addEtas(b, rng, f, 80)
			v := make([]float64, m)
			nz := make([]int32, 0, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nz = solve(f, rng, v, nz)
			}
		})
	}
}

// BenchmarkFtranSparse solves for a sparse entering column, clearing the
// previous result over its pattern the way the simplex does.
func BenchmarkFtranSparse(b *testing.B) {
	benchTran(b, func(f *Factors, rng *rand.Rand, v []float64, nz []int32) []int32 {
		for _, i := range nz {
			v[i] = 0
		}
		nz = nz[:0]
		for k := 0; k < 4; k++ {
			r := int32(rng.Intn(f.M()))
			v[r] += 1 + rng.Float64()
			nz = append(nz, r)
		}
		return f.Ftran(v, nz)
	})
}

// BenchmarkBtranUnit solves for a unit right-hand side e_r — the simplex
// pivot row — clearing the previous result over its pattern.
func BenchmarkBtranUnit(b *testing.B) {
	benchTran(b, func(f *Factors, rng *rand.Rand, v []float64, nz []int32) []int32 {
		for _, i := range nz {
			v[i] = 0
		}
		r := int32(rng.Intn(f.M()))
		v[r] = 1
		return f.Btran(v, append(nz[:0], r))
	})
}
