package lp

import (
	"fmt"
	"math"
	"slices"

	"tvnep/internal/numtol"
)

// Incremental columns: the column-generation interface, the column-side
// mirror of AppendRow. AppendColumn grows a solved Instance by one structural
// column; Solve then maps a pre-append basis onto the new dimensions so the
// primal simplex hot-restarts from the old optimum instead of re-solving from
// scratch. Appending a column keeps the old point primal feasible — the new
// column enters nonbasic at a bound, leaving every basic value unchanged — so
// the basis factorization is reused verbatim and a primal run prices the new
// column in with a handful of pivots, which is what makes column generation
// cheap. (Contrast AppendRow, whose restart preserves dual feasibility and
// re-enters through the dual simplex.)

// AppendColumn appends a structural column with coefficients val over rows
// idx, bounds [lb, ub] and objective coefficient obj (all in the problem's
// original sense and units), returning its column index. Duplicate row
// indices are merged and zero coefficients dropped. The column-major matrix,
// the row-wise overlay, bounds, objective and scales grow in place, within
// the headroom compile left. On a scaled instance
// the stored column is equilibrated like the compiled ones (a fresh
// power-of-two column scale over the already row-scaled coefficients);
// bounds and objective stay in original units.
// Bases snapshotted before the append no longer match the instance's
// dimensions; Solve remaps them automatically (see extendWarmStartCols).
func (inst *Instance) AppendColumn(idx []int32, val []float64, lb, ub, obj float64) int {
	if len(idx) != len(val) {
		panic("lp: AppendColumn index/value length mismatch")
	}
	if lb > ub {
		panic(fmt.Sprintf("lp: AppendColumn bounds lb %v > ub %v", lb, ub))
	}
	j := inst.n
	for _, i := range idx {
		if int(i) < 0 || int(i) >= inst.m {
			panic(fmt.Sprintf("lp: AppendColumn row %d out of range [0, %d)", i, inst.m))
		}
	}
	// A private, retained column copy in canonical form.
	colIdx, colVal := Canonical(idx, val)

	// Equilibrate the stored column like the compiled ones. Scaling was fixed
	// at compile time; an unscaled instance stays unscaled (column scale 1).
	if inst.scaled {
		cs := inst.appendedColScale(colIdx, colVal)
		for k, i := range colIdx {
			colVal[k] *= cs * inst.rowScale[i]
		}
		inst.colScale = append(inst.colScale, cs)
		inst.colScaleInv = append(inst.colScaleInv, 1/cs)
	}

	// Objective, in the internal minimization sense.
	if inst.negate {
		obj = -obj
	}
	inst.objMin = append(inst.objMin, obj)

	// Bounds: structural bounds occupy [0, n) with the row (slack) bounds at
	// the tail, so the new column's bounds are inserted at position n and the
	// row tail shifts up by one.
	inst.lb = slices.Insert(inst.lb, j, lb)
	inst.ub = slices.Insert(inst.ub, j, ub)

	// The column-major matrix gains an outer entry; the slices were
	// canonicalized above and are owned by this instance.
	inst.colIdx = append(inst.colIdx, colIdx)
	inst.colVal = append(inst.colVal, colVal)

	// Row-wise overlay for the rows this column touches: every such row's
	// own storage (compiled Problem row or AppendRow copy) predates the
	// column, so the row-wise consumers (pivotRow, debug checks) read the
	// missing entries from here. It covers the rows up to the last one a
	// column was appended over.
	if len(colIdx) > 0 {
		if k := len(inst.apRowIdx); k < inst.m {
			inst.apRowIdx = slices.Grow(inst.apRowIdx, inst.m-k)[:inst.m]
			inst.apRowVal = slices.Grow(inst.apRowVal, inst.m-k)[:inst.m]
			clear(inst.apRowIdx[k:])
			clear(inst.apRowVal[k:])
		}
		for k, i := range colIdx {
			inst.apRowIdx[i] = append(inst.apRowIdx[i], int32(j))
			inst.apRowVal[i] = append(inst.apRowVal[i], colVal[k])
		}
	}

	inst.n = j + 1
	return j
}

// NumAppendedCols reports how many columns AppendColumn has added beyond the
// compiled Problem.
func (inst *Instance) NumAppendedCols() int { return inst.n - inst.baseCols }

// appendedColScale picks the power-of-two scale for a column appended after
// compilation: the geometric mean of the column's row-scaled extreme
// magnitudes, matching what equilibrate would have chosen in one pass. Only
// called on scaled instances.
func (inst *Instance) appendedColScale(idx []int32, val []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for k, i := range idx {
		a := math.Abs(val[k]) * inst.rowScale[i]
		if a == 0 {
			continue
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi == 0 {
		return 1
	}
	return pow2Round(1 / math.Sqrt(lo*hi))
}

// extendWarmStartCols maps a basis snapshotted when the instance had
// nOld < n structural columns onto the current dimensions: the appended
// columns enter nonbasic at their natural bound and the slack status block
// shifts up around them. The basic set — and therefore the basis matrix and
// any handed-off LU factors — is unchanged, so adoptBasis reuses
// Options.WarmFactors verbatim; no bordered extension is needed.
func (inst *Instance) extendWarmStartCols(b *Basis, nOld int) *Basis {
	n := inst.n
	mOld := len(b.Basic)
	shift := n - nOld
	eb := &Basis{Basic: make([]int32, mOld), Status: make([]int8, n+mOld)}
	for p, j := range b.Basic {
		if int(j) >= nOld {
			j += int32(shift) // slack block moved up by the new columns
		}
		eb.Basic[p] = j
	}
	copy(eb.Status[:nOld], b.Status[:nOld])
	copy(eb.Status[n:], b.Status[nOld:])
	// Appended columns keep the zero value (vsLower); adoptBasis repairs the
	// status of any whose lower bound is −Inf.
	return eb
}

// appendedColsDualFeasible reports whether every column in [nOld, n) prices
// out at the adopted basis: none has an improving reduced cost for its
// nonbasic status. When true, the old point is still dual feasible and the
// usual dual-simplex restart applies; when false, solveWarm switches to the
// primal-first column-generation restart. Requires an installed
// factorization (adoptBasis); uses the active phase costs.
func (s *solver) appendedColsDualFeasible(nOld int) bool {
	s.computeDuals()
	for j := nOld; j < s.inst.n; j++ {
		switch s.vstat[j] {
		case vsBasic:
			continue
		case vsLower:
			if s.reducedCost(j) < -numtol.LPOptTol {
				return false
			}
		case vsUpper:
			if s.reducedCost(j) > numtol.LPOptTol {
				return false
			}
		default: // vsFree
			if math.Abs(s.reducedCost(j)) > numtol.LPOptTol {
				return false
			}
		}
	}
	return true
}

// CandidateReducedCost returns obj − Σ duals[i]·val[k], the reduced cost of a
// candidate column in the problem's original sense, where duals is the Duals
// field of an optimal Result (length NumRows, covering appended rows). This
// is the pricing test of column generation: for a Maximize problem, a
// candidate entering at its lower bound improves the LP iff the value is
// positive beyond tolerance; for Minimize, iff it is negative. Duplicate row
// indices accumulate, matching AppendColumn.
func CandidateReducedCost(obj float64, idx []int32, val []float64, duals []float64) float64 {
	d := obj
	for k, i := range idx {
		d -= duals[i] * val[k]
	}
	return d
}
