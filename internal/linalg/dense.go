// Package linalg provides a small dense linear-algebra kernel: row-major
// dense matrices and LU factorization with partial pivoting. The sparse
// basis factorization's tests use it as their reference.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// denseSingTol is the pivot magnitude below which the LU factorization
// declares the matrix numerically singular.
const denseSingTol = 1e-13

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = element (i,j)
}

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = M·x. y must have length Rows, x length Cols.
func (m *Dense) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("linalg: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MulVecTrans computes y = Mᵀ·x. x must have length Rows, y length Cols.
func (m *Dense) MulVecTrans(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("linalg: MulVecTrans dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
}

// LU is an LU factorization with partial pivoting: P·A = L·U, stored packed
// in-place (unit lower triangle implicit).
type LU struct {
	n    int
	lu   *Dense
	piv  []int // row permutation: row i of PA is row piv[i] of A
	sign int
}

// Factorize computes the LU decomposition of the square matrix a.
// a is not modified.
func Factorize(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factorize needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f := &LU{n: n, lu: a.Clone(), piv: make([]int, n), sign: 1}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below diagonal.
		p, best := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > best {
				p, best = i, a
			}
		}
		if best < denseSingTol {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b, writing the result into x (which may alias b).
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	// Apply permutation: y = P·b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution L·z = y (unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := y[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s
	}
	// Back substitution U·x = z.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
