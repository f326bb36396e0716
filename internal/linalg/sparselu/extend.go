package sparselu

import (
	"math"
	"math/bits"
)

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
// scratch. f may be a capture.
//
// The extended base is built in one drawn from ws's pool and dst's eta and
// scratch storage is reused when its capacity allows; dst must be distinct
// from f. f is not modified and shares nothing with the result.
//
// Each appended column (position m+i) is a unit column pivotal in its own
// appended row, so it contributes an empty elimination step with diagonal
// diag[i]. The border C enters the L factor: the new rows' multipliers
// against the old elimination steps are X = ĉ·U⁻¹ per border row, where
// ĉ is the row pushed through the eta inverses (C·E⁻¹) and reindexed from
// basis positions to elimination steps. Each border row is solved
// hyper-sparsely, as Btran solves: only the etas and the elimination steps
// it reaches are visited, and each step gathers its U column in the order
// the dense recurrence x[t] = (ĉ[t] − Σ U[j,t]·x[j]) / U[t,t] does, so every
// nonzero multiplier is bit for bit the dense loop's.
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
	// dst first becomes a solvable view of f: its eta chains and scratch
	// serve the border solves, and its eta file is the extension's. Its
	// chain heads get their room for the new positions first, so growing
	// them afterwards keeps them.
	dst.etaHead = growI32(dst.etaHead, mk)
	f.ShareInto(dst, ws)
	ws.grow(mk)
	c := ws.w[:m]
	clear(c)
	ws.xrow, ws.xstep, ws.xval = ws.xrow[:0], ws.xstep[:0], ws.xval[:0]
	for i := 0; i < k; i++ {
		for e, p := range borderIdx[i] {
			c[p] += borderVal[i][e]
		}
		dst.borderRow(ws, int32(i), c, borderIdx[i])
	}

	src := dst.lu
	g := ws.base()
	g.m = mk
	g.order = append(growI32(g.order, mk)[:0], src.order...)
	g.rowPiv = append(growI32(g.rowPiv, mk)[:0], src.rowPiv...)
	g.udiag = append(growF64(g.udiag, mk)[:0], src.udiag...)
	g.uptr = append(growI32(g.uptr, mk+1)[:0], src.uptr...)
	g.urow = append(growI32(g.urow, len(src.urow))[:0], src.urow...)
	g.uval = append(growF64(g.uval, len(src.uval))[:0], src.uval...)
	g.order = g.order[:mk]
	g.rowPiv = g.rowPiv[:mk]
	g.udiag = g.udiag[:mk]
	g.uptr = g.uptr[:mk+1]
	for i := 0; i < k; i++ {
		g.order[m+i] = int32(m + i)
		g.rowPiv[m+i] = int32(m + i)
		g.udiag[m+i] = diag[i]
		g.uptr[m+1+i] = src.uptr[m] // empty U columns for the new steps
	}

	// Rebuild L, each step's border multipliers (row indices m+i, in
	// ascending i) behind its original entries: count them per step, lay
	// out the columns, then place the staged multipliers, which come row by
	// row, through per-step cursors.
	cnt := ws.cnt[:m+1]
	clear(cnt)
	for _, t := range ws.xstep {
		cnt[t+1]++
	}
	g.lptr = growI32(g.lptr, mk+1)
	g.lptr[0] = 0
	for t := 0; t < m; t++ {
		g.lptr[t+1] = g.lptr[t] + src.lptr[t+1] - src.lptr[t] + cnt[t+1]
	}
	for t := m; t < mk; t++ {
		g.lptr[t+1] = g.lptr[m] // empty L columns for the new steps
	}
	g.lrow = growI32(g.lrow, int(g.lptr[m]))
	g.lval = growF64(g.lval, int(g.lptr[m]))
	for t := 0; t < m; t++ {
		lo, hi := src.lptr[t], src.lptr[t+1]
		w := g.lptr[t]
		copy(g.lrow[w:], src.lrow[lo:hi])
		copy(g.lval[w:], src.lval[lo:hi])
		cnt[t] = w + hi - lo
	}
	for x, t := range ws.xstep {
		g.lrow[cnt[t]] = int32(m) + ws.xrow[x]
		g.lval[cnt[t]] = ws.xval[x]
		cnt[t]++
	}
	g.buildMirrors(ws)

	// The eta file and its occurrence chains carry over verbatim (they act
	// on the old positions).
	dst.hold(g, ws)
	dst.etaHead = growI32(dst.etaHead, mk)
	for p := m; p < mk; p++ {
		dst.etaHead[p] = -1
	}
	dst.resetSolveState()
	return nil
}

// borderRow stages border row i's nonzero multipliers against f's
// elimination steps, x = ĉ·U⁻¹ with ĉ the row c (indexed by basis
// position, zero outside the positions nz lists) pushed through the eta
// inverses, in ascending step order; c is left zero. The steps a nonzero
// reaches through U's row mirror are marked, and each is solved in
// ascending order by gathering its U column in stored order, so every
// nonzero equals the dense recurrence's.
func (f *Factors) borderRow(ws *Workspace, i int32, c []float64, nz []int32) {
	// c ← c·E⁻¹ is the eta-transpose half of Btran, because
	// (c·E⁻¹)ᵀ = E⁻ᵀ·cᵀ; it leaves ĉ in the per-step scratch.
	f.btranEtas(c, nz)
	steps, x := f.marks[:f.nmark], f.scratch
	for w := range steps {
		for done := uint64(0); ; {
			word := steps[w] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			done |= 1 << b
			t := w<<6 | b
			s := x[t]
			for e := f.uptr[t]; e < f.uptr[t+1]; e++ {
				s -= f.uval[e] * x[f.urow[e]]
			}
			s /= f.udiag[t]
			x[t] = s
			if s == 0 {
				continue
			}
			for e := f.urptr[t]; e < f.urptr[t+1]; e++ {
				setMark(steps, f.urcol[e])
			}
			if math.Abs(s) > dropTol {
				ws.xrow = append(ws.xrow, i)          //lint:allow hotalloc -- grows once, to the largest border's multipliers
				ws.xstep = append(ws.xstep, int32(t)) //lint:allow hotalloc -- as above
				ws.xval = append(ws.xval, s)          //lint:allow hotalloc -- as above
			}
		}
	}
	for w, word := range steps {
		for word != 0 {
			x[w<<6|bits.TrailingZeros64(word)] = 0
			word &= word - 1
		}
		steps[w] = 0
	}
}
