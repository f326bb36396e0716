package sparselu

import "math"

// CopyInto deep-copies f into dst: a base of dst's own (dst's previous one
// reused when no other view holds it), the eta file and its occurrence
// chains. It is the reference the shared views are held to: a solve on a
// view must read exactly the numbers a deep copy holds. f must be solvable.
func (f *Factors) CopyInto(dst *Factors) {
	if dst.lu == nil || dst.refs > 1 {
		if dst.lu != nil {
			dst.refs--
		}
		dst.lu = &lu{refs: 1}
	}
	g := dst.lu
	g.m = f.m
	g.order = copyOf(g.order, f.order)
	g.rowPiv = copyOf(g.rowPiv, f.rowPiv)
	g.lptr = copyOf(g.lptr, f.lptr)
	g.lrow = copyOf(g.lrow, f.lrow)
	g.lval = copyOf(g.lval, f.lval)
	g.uptr = copyOf(g.uptr, f.uptr)
	g.urow = copyOf(g.urow, f.urow)
	g.uval = copyOf(g.uval, f.uval)
	g.udiag = copyOf(g.udiag, f.udiag)
	g.urptr = copyOf(g.urptr, f.urptr)
	g.urcol = copyOf(g.urcol, f.urcol)
	g.urval = copyOf(g.urval, f.urval)
	g.lrptr = copyOf(g.lrptr, f.lrptr)
	g.lrcol = copyOf(g.lrcol, f.lrcol)
	g.lrval = copyOf(g.lrval, f.lrval)
	g.rowStep = copyOf(g.rowStep, f.rowStep)
	g.posStep = copyOf(g.posStep, f.posStep)
	dst.etas = copyOf(dst.etas, f.etas)
	dst.etaIdx = copyOf(dst.etaIdx, f.etaIdx)
	dst.etaVal = copyOf(dst.etaVal, f.etaVal)
	dst.etaNNZ = f.etaNNZ
	dst.etaHead = copyOf(dst.etaHead, f.etaHead)
	dst.occ = copyOf(dst.occ, f.occ)
	dst.resetSolveState()
}

// denseBorderL is the dense reference of ExtendInto's border multipliers:
// the L factor (column pointers, rows, values) that extending f by the k
// border rows must produce, computed with the full eta loop and the dense
// Uᵀ recurrence over all m steps per border row.
func denseBorderL(f *Factors, k int, borderIdx [][]int32, borderVal [][]float64) ([]int32, []int32, []float64) {
	m := f.m
	xs := make([]float64, k*m)
	c := make([]float64, m)
	for i := 0; i < k; i++ {
		for e, p := range borderIdx[i] {
			c[p] += borderVal[i][e]
		}
		for ei := len(f.etas) - 1; ei >= 0; ei-- {
			e := &f.etas[ei]
			s := c[e.r]
			for t, ix := range f.etaIdx[e.off : e.off+e.n] {
				s -= f.etaVal[e.off+int32(t)] * c[ix]
			}
			c[e.r] = s / e.piv
		}
		x := xs[i*m : (i+1)*m]
		for t := 0; t < m; t++ {
			s := c[f.order[t]]
			for e := f.uptr[t]; e < f.uptr[t+1]; e++ {
				s -= f.uval[e] * x[f.urow[e]]
			}
			x[t] = s / f.udiag[t]
		}
		clear(c)
	}
	lptr := make([]int32, m+k+1)
	var lrow []int32
	var lval []float64
	for t := 0; t < m; t++ {
		lrow = append(lrow, f.lrow[f.lptr[t]:f.lptr[t+1]]...)
		lval = append(lval, f.lval[f.lptr[t]:f.lptr[t+1]]...)
		for i := 0; i < k; i++ {
			if v := xs[i*m+t]; math.Abs(v) > dropTol {
				lrow = append(lrow, int32(m+i))
				lval = append(lval, v)
			}
		}
		lptr[t+1] = int32(len(lrow))
	}
	for t := m; t < m+k; t++ {
		lptr[t+1] = lptr[t]
	}
	return lptr, lrow, lval
}
