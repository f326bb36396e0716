package lp

import (
	"fmt"

	"tvnep/internal/linalg/sparselu"
)

// Incremental rows: the cutting-plane interface. AppendRow grows a solved
// Instance by one row; extendWarmStart then maps a pre-append basis (and its
// LU factors, via the WarmFactors handoff) onto the new dimensions so the
// dual simplex hot-restarts from the old optimum instead of refactorizing
// and re-solving from scratch. Appending a row keeps the old point dual
// feasible — the new slack enters the basis with dual value zero, leaving
// every reduced cost unchanged — so the dual simplex restores primal
// feasibility in a handful of pivots, which is what makes lazy cut
// separation cheap.

// AppendRow appends the row rlb ≤ Σ val[k]·x[idx[k]] ≤ rub over structural
// columns and returns its row index. Duplicate indices are merged and zero
// coefficients dropped. The column-major matrix grows in place, a compiled
// column moving to storage of its own on its first append (it shares its
// backing array with its neighbours). On a scaled instance the stored row is
// equilibrated like the compiled rows (a fresh power-of-two row scale over
// the already column-scaled coefficients); bounds stay in original units.
// Bases snapshotted before the append no longer match the instance's
// dimensions; Solve extends them automatically (see extendWarmStart).
func (inst *Instance) AppendRow(idx []int32, val []float64, rlb, rub float64) int {
	if len(idx) != len(val) {
		panic("lp: AppendRow index/value length mismatch")
	}
	if rlb > rub {
		panic(fmt.Sprintf("lp: AppendRow bounds lb %v > ub %v", rlb, rub))
	}
	r := inst.m
	for _, j := range idx {
		if int(j) < 0 || int(j) >= inst.n {
			panic(fmt.Sprintf("lp: AppendRow column %d out of range [0, %d)", j, inst.n))
		}
	}
	// A private, retained row copy in canonical form.
	rowIdx, rowVal := Canonical(idx, val)

	// Equilibrate the stored row like the compiled ones. Scaling was fixed
	// at compile time; an unscaled instance stays unscaled (row scale 1).
	if inst.scaled {
		rs := inst.appendedRowScale(rowIdx, rowVal)
		for k, j := range rowIdx {
			rowVal[k] *= rs * inst.colScale[j]
		}
		inst.rowScale = append(inst.rowScale, rs)
	}

	// Column updates: a compiled column is carved from the compile-time
	// backing arrays with its capacity capped at its length, so its first
	// append moves it to storage of its own, where later ones grow in place.
	for k, j := range rowIdx {
		inst.colIdx[j] = append(inst.colIdx[j], int32(r))
		inst.colVal[j] = append(inst.colVal[j], rowVal[k])
	}
	inst.extraIdx = append(inst.extraIdx, rowIdx)
	inst.extraVal = append(inst.extraVal, rowVal)
	// Row (slack) bounds live at the tail of lb/ub, in original units.
	inst.lb = append(inst.lb, rlb)
	inst.ub = append(inst.ub, rub)
	inst.m = r + 1
	return r
}

// NumAppendedRows reports how many rows AppendRow has added beyond the
// compiled Problem.
func (inst *Instance) NumAppendedRows() int { return inst.m - inst.baseRows }

// rowData returns row i's structural indices and coefficients in the
// solver's (scaled) units, covering both compiled and appended rows. The
// slices are shared storage; do not mutate.
func (inst *Instance) rowData(i int) ([]int32, []float64) {
	if i < inst.baseRows {
		idx, val := inst.p.Row(i)
		if inst.scaled {
			return idx, inst.baseRowVal[i]
		}
		return idx, val
	}
	return inst.extraIdx[i-inst.baseRows], inst.extraVal[i-inst.baseRows]
}

// RowBounds returns the bounds of row i in original units.
func (inst *Instance) RowBounds(i int) (lb, ub float64) {
	return inst.lb[inst.n+i], inst.ub[inst.n+i]
}

// extendWarmStart maps a basis snapshotted when the instance had mOld < m
// rows onto the current dimensions: each appended row's slack enters the
// basis (the standard cutting-plane restart — the primal point is unchanged,
// the new slacks carry the new rows' activities, and dual feasibility is
// preserved because the new duals start at zero). The new slacks append
// to the slack block, so every old index keeps its meaning. When wf holds
// the LU factors matching b, they are extended with a bordered block
// (sparselu.ExtendInto, into the solver's view, flagged by s.extended)
// so the hot restart skips refactorization entirely.
//
// Returns nil if b does not look like a basis of this instance with fewer
// rows; returns the extended basis with s.extended unset if only the basis
// could be extended (the adopting solver then refactorizes).
func (s *solver) extendWarmStart(b *Basis, wf *sparselu.Factors) *Basis {
	inst := s.inst
	n, m := inst.n, inst.m
	mOld := len(b.Basic)
	if mOld >= m || len(b.Status) != n+mOld {
		return nil
	}
	shift := m - mOld
	eb := &s.ext
	eb.Basic, eb.Status = fit(eb.Basic, m), fit(eb.Status, n+m)
	copy(eb.Basic, b.Basic)
	copy(eb.Status, b.Status)
	for i := mOld; i < m; i++ {
		eb.Basic[i] = int32(n + i)
		eb.Status[n+i] = vsBasic
	}

	if wf == nil || wf.M() != mOld {
		return eb
	}
	// Border block: the appended rows' coefficients on the old basic
	// columns, stated in basis positions. Appended rows touch structural
	// columns only, so basic slacks contribute nothing.
	// The row-wise column overlay (apRowIdx) never contributes either: a
	// column appended after this basis was snapshotted is nonbasic in it,
	// and every column the basis can hold predates these border rows, so
	// their coefficients live in the rows' own storage read by rowData.
	// The position lookup and border storage are solver-owned scratch.
	for p, j := range b.Basic {
		s.posOf[j] = int32(p)
	}
	if cap(s.extIdx) < shift {
		s.extIdx = make([][]int32, shift)
		s.extVal = make([][]float64, shift)
		s.extDiag = make([]float64, shift)
	}
	s.extIdx = s.extIdx[:shift]
	s.extVal = s.extVal[:shift]
	s.extDiag = s.extDiag[:shift]
	for t := 0; t < shift; t++ {
		ridx, rval := inst.rowData(mOld + t)
		bi, bv := s.extIdx[t][:0], s.extVal[t][:0]
		for k, j := range ridx {
			if p := s.posOf[j]; p >= 0 {
				bi = append(bi, p)
				bv = append(bv, rval[k])
			}
		}
		s.extIdx[t], s.extVal[t] = bi, bv
		s.extDiag[t] = -1 // the appended slack column is −e_row
	}
	for _, j := range b.Basic {
		s.posOf[j] = -1
	}
	if err := wf.ExtendInto(&s.view, inst.facWS, shift, s.extIdx, s.extVal, s.extDiag); err != nil {
		return eb
	}
	s.extended = true
	DebugBasisExtensions.Add(1)
	return eb
}
