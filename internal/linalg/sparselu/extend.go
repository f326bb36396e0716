package sparselu

import "math"

// ExtendInto factorizes the bordered (m+k)×(m+k) basis
//
//	M = | B 0 |
//	    | C D |
//
// into dst, where B is the basis represented by f (base LU plus its eta
// file), C holds k border rows stated over B's basis positions, and
// D = diag(diag). This is the cutting-plane hot-restart kernel: when rows are
// appended to a solved LP, each new row's slack enters the basis, so the new
// basis is exactly M and can be factorized by extension instead of from
// scratch.
//
// dst's storage is reused when capacity allows. dst must be distinct from f
// and must not be shared with any other live Factors. The receiver is not
// modified and shares nothing with the result.
//
// Each appended column (position m+i) is a unit column pivotal in its own
// appended row, so it contributes an empty elimination step with diagonal
// diag[i]. The border C enters the L factor: the new rows' multipliers
// against the old elimination steps are X = ĉ·U⁻¹ per border row, where
// ĉ is the row pushed through the eta inverses (C·E⁻¹) and reindexed from
// basis positions to elimination steps. One triangular solve per border row,
// O(k·(m + nnz(U) + nnz(etas))) total — independent of B's fill-in.
//
// borderIdx[i] lists basis positions (0..m-1) and may repeat (entries are
// accumulated). diag entries must be nonzero; the extension itself is never
// singular when they are (det M = det B · Π diag[i]).
//
//hot:path
func (f *Factors) ExtendInto(dst *Factors, ws *Workspace, k int, borderIdx [][]int32, borderVal [][]float64, diag []float64) error {
	m := f.m
	mk := m + k
	for i := 0; i < k; i++ {
		if math.Abs(diag[i]) < singTol {
			return ErrSingular
		}
	}

	// Per border row: multipliers xs[i·m:(i+1)·m] over the old elimination
	// steps, staged in the workspace (c doubles as the position-indexed
	// accumulator via ws.w).
	ws.grow(mk)
	ws.xbuf = growF64(ws.xbuf, k*m)
	xs := ws.xbuf
	c := ws.w[:m]
	for t := range c {
		c[t] = 0
	}
	for i := 0; i < k; i++ {
		for e, p := range borderIdx[i] {
			c[p] += borderVal[i][e]
		}
		// c ← c·E⁻¹: the eta-transpose loop of Btran, because
		// (c·E⁻¹)ᵀ = E⁻ᵀ·cᵀ.
		for ei := len(f.etas) - 1; ei >= 0; ei-- {
			e := &f.etas[ei]
			s := c[e.r]
			idx := f.etaIdx[e.off : e.off+e.n]
			val := f.etaVal[e.off : e.off+e.n]
			for t, ix := range idx {
				s -= val[t] * c[ix]
			}
			c[e.r] = s / e.piv
		}
		// Solve x·U = ĉ over steps (ĉ[t] = c[order[t]]): the forward Uᵀ
		// recurrence of Btran.
		x := xs[i*m : (i+1)*m]
		for t := 0; t < m; t++ {
			s := c[f.order[t]]
			for e := f.uptr[t]; e < f.uptr[t+1]; e++ {
				s -= f.uval[e] * x[f.urow[e]]
			}
			x[t] = s / f.udiag[t]
		}
		for t := range c {
			c[t] = 0
		}
	}

	g := dst
	g.m = mk
	g.order = append(growI32(g.order, mk)[:0], f.order...)
	g.rowPiv = append(growI32(g.rowPiv, mk)[:0], f.rowPiv...)
	g.udiag = append(growF64(g.udiag, mk)[:0], f.udiag...)
	g.uptr = append(growI32(g.uptr, mk+1)[:0], f.uptr...)
	g.urow = append(growI32(g.urow, len(f.urow))[:0], f.urow...)
	g.uval = append(growF64(g.uval, len(f.uval))[:0], f.uval...)
	g.order = g.order[:mk]
	g.rowPiv = g.rowPiv[:mk]
	g.udiag = g.udiag[:mk]
	g.uptr = g.uptr[:mk+1]
	for i := 0; i < k; i++ {
		g.order[m+i] = int32(m + i)
		g.rowPiv[m+i] = int32(m + i)
		g.udiag[m+i] = diag[i]
		g.uptr[m+1+i] = f.uptr[m] // empty U columns for the new steps
	}

	// Rebuild L, interleaving each step's border multipliers (row indices
	// m+i) behind its original entries.
	extra := 0
	for _, v := range xs[:k*m] {
		if math.Abs(v) > dropTol {
			extra++
		}
	}
	nl := len(f.lrow) + extra
	g.lptr = growI32(g.lptr, mk+1)
	g.lrow = growI32(g.lrow, nl)
	g.lval = growF64(g.lval, nl)
	g.lptr[0] = 0
	w := 0
	for t := 0; t < m; t++ {
		lo, hi := f.lptr[t], f.lptr[t+1]
		copy(g.lrow[w:], f.lrow[lo:hi])
		copy(g.lval[w:], f.lval[lo:hi])
		w += int(hi - lo)
		for i := 0; i < k; i++ {
			if v := xs[i*m+t]; math.Abs(v) > dropTol {
				g.lrow[w] = int32(m + i)
				g.lval[w] = v
				w++
			}
		}
		g.lptr[t+1] = int32(w)
	}
	for t := m; t < mk; t++ {
		g.lptr[t+1] = g.lptr[t] // empty L columns for the new steps
	}

	// The eta file and its occurrence chains carry over verbatim (they act
	// on the old positions).
	g.etas = copyOf(g.etas, f.etas)
	g.etaIdx = copyOf(g.etaIdx, f.etaIdx)
	g.etaVal = copyOf(g.etaVal, f.etaVal)
	g.etaNNZ = f.etaNNZ
	g.occ = copyOf(g.occ, f.occ)
	g.etaHead = growI32(g.etaHead, mk)
	copy(g.etaHead, f.etaHead)
	for p := m; p < mk; p++ {
		g.etaHead[p] = -1
	}
	g.resetSolveState()
	g.buildMirrors(ws)
	return nil
}
