package sparselu

import "math"

// ExtendColumn returns the factorization of the bordered (m+k)×(m+k) basis
//
//	M = | B C |
//	    | 0 D |
//
// where B is the basis represented by f (base LU plus its eta file), C holds
// k border columns stated over B's original row indices, and D = diag(diag).
// This is the column-side mirror of Extend: where Extend grows a basis whose
// appended rows are covered by their own slacks (the cutting-plane restart),
// ExtendColumn grows a basis whose appended columns are pivotal in appended
// rows — the shape produced when a caller enters matched row/column pairs at
// once (a priced column taken basic in its convexity row's appended slack
// position). Plain column appends never change the basis dimension — the new
// columns enter nonbasic and the existing factors are adopted unchanged (see
// lp.Instance.AppendColumn) — so this kernel is only consulted for the
// matched-pair shape. Hot callers should hold a destination and Workspace and
// use ExtendColumnInto instead.
func (f *Factors) ExtendColumn(k int, borderIdx [][]int32, borderVal [][]float64, diag []float64) (*Factors, error) {
	g := &Factors{}
	if err := f.ExtendColumnInto(g, NewWorkspace(), k, borderIdx, borderVal, diag); err != nil {
		return nil, err
	}
	return g, nil
}

// ExtendColumnInto factorizes the bordered basis into dst (see ExtendColumn),
// reusing dst's storage when capacity allows. dst must be distinct from f and
// must not be shared with any other live Factors. The receiver is not
// modified and shares nothing with the result.
//
// Writing B = B₀·E (base factors times eta file), the bordered basis factors
// as M = [B₀ C; 0 D]·blockdiag(E, I): the eta file carries over verbatim and
// — unlike Extend, whose bottom-left border must be pushed through the eta
// inverses — the top-right border only meets the base factors. Each border
// column is pushed through the base L solve (the forward scatter loop of
// Ftran); the surviving entries, reindexed from original rows to elimination
// steps, are exactly the new U column L₀⁻¹·c of step m+i. The appended rows
// are untouched by old L columns, so each new column pivots on diag[i] in its
// own appended row: udiag[m+i] = diag[i] with an empty L column — the exact
// transpose of Extend's empty-U/border-in-L layout. One L solve per border
// column, O(k·(m + nnz(L))) total — independent of B's fill-in.
//
// borderIdx[i] lists original row indices (0..m-1) and may repeat (entries
// are accumulated). diag entries must be nonzero; the extension itself is
// never singular when they are (det M = det B · Π diag[i]).
//
//hot:path
func (f *Factors) ExtendColumnInto(dst *Factors, ws *Workspace, k int, borderIdx [][]int32, borderVal [][]float64, diag []float64) error {
	m := f.m
	mk := m + k
	for i := 0; i < k; i++ {
		if math.Abs(diag[i]) < singTol {
			return ErrSingular
		}
	}

	// Per border column: the base L solve into the row-indexed accumulator,
	// then gather per elimination step into us[i·m:(i+1)·m] (every old row is
	// pivotal in B₀, so the whole solved column lands in U).
	ws.grow(mk)
	ws.xbuf = growF64(ws.xbuf, k*m)
	us := ws.xbuf
	w := ws.w[:m]
	for r := range w {
		w[r] = 0
	}
	for i := 0; i < k; i++ {
		for e, r := range borderIdx[i] {
			w[r] += borderVal[i][e]
		}
		for t := 0; t < m; t++ {
			val := w[f.rowPiv[t]]
			if val == 0 {
				continue
			}
			for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
				w[f.lrow[e]] -= f.lval[e] * val
			}
		}
		u := us[i*m : (i+1)*m]
		for t := 0; t < m; t++ {
			u[t] = w[f.rowPiv[t]]
			w[f.rowPiv[t]] = 0
		}
	}

	g := dst
	g.m = mk
	g.order = append(growI32(g.order, mk)[:0], f.order...)
	g.rowPiv = append(growI32(g.rowPiv, mk)[:0], f.rowPiv...)
	g.udiag = append(growF64(g.udiag, mk)[:0], f.udiag...)
	g.order = g.order[:mk]
	g.rowPiv = g.rowPiv[:mk]
	g.udiag = g.udiag[:mk]
	for i := 0; i < k; i++ {
		g.order[m+i] = int32(m + i)
		g.rowPiv[m+i] = int32(m + i)
		g.udiag[m+i] = diag[i]
	}

	// L carries over verbatim, with empty columns for the new steps.
	g.lptr = growI32(g.lptr, mk+1)
	g.lrow = append(growI32(g.lrow, len(f.lrow))[:0], f.lrow...)
	g.lval = append(growF64(g.lval, len(f.lval))[:0], f.lval...)
	copy(g.lptr, f.lptr[:m+1])
	for t := m; t < mk; t++ {
		g.lptr[t+1] = g.lptr[t]
	}

	// U gains one non-empty column per border column (row indices are the
	// earlier step numbers, dropTol-filtered like the base factorization).
	extra := 0
	for _, v := range us[:k*m] {
		if math.Abs(v) > dropTol {
			extra++
		}
	}
	nu := len(f.urow) + extra
	g.uptr = growI32(g.uptr, mk+1)
	g.urow = growI32(g.urow, nu)
	g.uval = growF64(g.uval, nu)
	copy(g.uptr, f.uptr[:m+1])
	copy(g.urow, f.urow)
	copy(g.uval, f.uval)
	wrt := len(f.urow)
	for i := 0; i < k; i++ {
		u := us[i*m : (i+1)*m]
		for t := 0; t < m; t++ {
			if v := u[t]; math.Abs(v) > dropTol {
				g.urow[wrt] = int32(t)
				g.uval[wrt] = v
				wrt++
			}
		}
		g.uptr[m+1+i] = int32(wrt)
	}

	// The eta file carries over verbatim (it acts on the old positions).
	g.etas = copyEtas(g.etas, f.etas)
	g.etaIdx = append(growI32(g.etaIdx, len(f.etaIdx))[:0], f.etaIdx...)
	g.etaVal = append(growF64(g.etaVal, len(f.etaVal))[:0], f.etaVal...)
	g.etaNNZ = f.etaNNZ
	g.scratch = growF64(g.scratch, mk)
	g.buildMirrors(ws)
	return nil
}
