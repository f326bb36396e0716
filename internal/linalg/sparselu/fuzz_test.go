package sparselu

import (
	"math"
	"testing"
)

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (s *fuzzBytes) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// val decodes a coefficient in [-8, 8) in steps of 1/16 (zero included).
func (s *fuzzBytes) val() float64 { return float64(int8(s.next())) / 16 }

// column decodes a sparse column of up to 7 entries over m indices; an
// index may repeat.
func (s *fuzzBytes) column(m int) ([]int32, []float64) {
	n := 1 + s.next()%7
	idx := make([]int32, n)
	val := make([]float64, n)
	for k := range idx {
		idx[k] = int32(s.next() % m)
		val[k] = s.val()
	}
	return idx, val
}

// FuzzTranMatchesDense decodes a basis (slacks and sparse structural
// columns on a rotated diagonal), an eta sequence, an optional bordered
// extension and a right-hand side, then holds Ftran and Btran to the dense
// reference loops bit for bit, as TestTranMatchesDenseReference does.
func FuzzTranMatchesDense(f *testing.F) {
	f.Add([]byte{5, 1, 0, 3, 2, 1, 7, 9, 4, 40, 3, 1, 2, 3, 200, 17})
	f.Add([]byte{64, 9, 1, 1, 1, 2, 5, 3, 80, 250, 6, 6, 30, 1, 2, 2, 99, 0, 7})
	f.Add([]byte{129, 33, 7, 0, 0, 4, 18, 2, 1, 1, 1, 120, 121, 122, 9, 8, 7, 6, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzBytes{b: data}
		m := 1 + s.next()%130
		shift := s.next() % m
		colIdx := make([][]int32, m)
		colVal := make([][]float64, m)
		for p := 0; p < m; p++ {
			row := int32((p + shift) % m)
			if s.next()%4 != 0 {
				colIdx[p], colVal[p] = []int32{row}, []float64{-1}
				continue
			}
			idx, val := s.column(m)
			colIdx[p] = append([]int32{row}, idx...)
			colVal[p] = append([]float64{4 + math.Abs(s.val())}, val...)
		}
		ws := NewWorkspace()
		fac := &Factors{}
		if FactorizeInto(fac, ws, m, colIdx, colVal) != nil {
			return
		}
		alpha := make([]float64, m)
		nz := make([]int32, 0, m+3)
		for n := s.next() % 40; n > 0; n-- {
			clear(alpha)
			idx, val := s.column(m)
			for k, r := range idx {
				alpha[r] += val[k]
			}
			nz = fac.Ftran(alpha, append(nz[:0], idx...))
			if pos := s.next() % m; math.Abs(alpha[pos]) >= 1e-3 {
				fac.Update(alpha, nz, pos)
			}
		}
		if k := s.next() % 3; k > 0 {
			bIdx := make([][]int32, k)
			bVal := make([][]float64, k)
			diag := make([]float64, k)
			for i := range bIdx {
				bIdx[i], bVal[i] = s.column(m)
				diag[i] = -1
			}
			ext := &Factors{}
			if err := fac.ExtendInto(ext, ws, k, bIdx, bVal, diag); err != nil {
				t.Fatalf("extend: %v", err)
			}
			fac, m = ext, m+k
		}
		v := make([]float64, m)
		ref := make([]float64, m)
		for _, btran := range []bool{false, true} {
			clear(v)
			nz = nz[:0]
			if s.next()%2 == 0 {
				for i := range v {
					v[i] = s.val()
					nz = append(nz, int32(i))
				}
			} else {
				idx, val := s.column(m)
				for k, i := range idx {
					v[i] += val[k]
				}
				nz = append(nz, idx...)
			}
			copy(ref, v)
			if btran {
				nz = fac.Btran(v, nz)
				refBtran(fac, ref)
			} else {
				nz = fac.Ftran(v, nz)
				refFtran(fac, ref)
			}
			for _, x := range ref {
				if math.IsInf(x, 0) || math.IsNaN(x) {
					return // the bitwise contract covers finite solves
				}
			}
			if msg := tranMismatch(v, ref, nz); msg != "" {
				t.Fatalf("m=%d, %d etas, btran=%v: %s", m, fac.NumEtas(), btran, msg)
			}
		}
	})
}
