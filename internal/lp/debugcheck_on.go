//go:build debugchecks

package lp

import (
	"fmt"
	"math"

	"tvnep/internal/numtol"
)

// debugVerifyResult re-checks every optimal result against the instance's
// own row and bound data and panics on a violation. It is compiled in only
// under the debugchecks build tag (`go test -tags debugchecks ./...`), so
// the release solver pays nothing; with the tag on, every LP solve in the
// process — including each branch-and-bound node relaxation — runs through
// this assertion. The tolerance is deliberately loose (catch wrong answers,
// not honest roundoff); the precise certificate lives in internal/certify.
func debugVerifyResult(inst *Instance, res *Result) {
	if res.Status != StatusOptimal || res.X == nil {
		return
	}
	// Loose acceptance: two orders of magnitude beyond the solver's own
	// feasibility tolerance.
	const tol = 100 * numtol.LPFeasTol
	for j := 0; j < inst.n; j++ {
		x := res.X[j]
		if x < inst.lb[j]-tol*(1+math.Abs(inst.lb[j])) || x > inst.ub[j]+tol*(1+math.Abs(inst.ub[j])) {
			panic(fmt.Sprintf("lp debugchecks: column %d value %v outside [%v, %v]",
				j, x, inst.lb[j], inst.ub[j]))
		}
	}
	for i := 0; i < inst.m; i++ {
		// rowData is stored in the solver's scaled units; check the scaled
		// identity act' = r_i·(A·x) against the scaled row bounds. On an
		// unscaled instance the scales are identity.
		idx, val := inst.rowData(i)
		act := 0.0
		rlb, rub := inst.lb[inst.n+i], inst.ub[inst.n+i]
		if inst.scaled {
			for k, j := range idx {
				act += val[k] * res.X[j] * inst.colScaleInv[j]
			}
			if i < len(inst.apRowIdx) {
				// Columns appended after the row (see Instance.apRowIdx).
				for k, j := range inst.apRowIdx[i] {
					act += inst.apRowVal[i][k] * res.X[j] * inst.colScaleInv[j]
				}
			}
			rs := inst.rowScale[i]
			rlb *= rs
			rub *= rs
		} else {
			for k, j := range idx {
				act += val[k] * res.X[j]
			}
			if i < len(inst.apRowIdx) {
				for k, j := range inst.apRowIdx[i] {
					act += inst.apRowVal[i][k] * res.X[j]
				}
			}
		}
		if act < rlb-tol*(1+math.Abs(rlb)) || act > rub+tol*(1+math.Abs(rub)) {
			panic(fmt.Sprintf("lp debugchecks: row %d activity %v outside [%v, %v]",
				i, act, rlb, rub))
		}
	}
}

// debugCheckCandidates asserts, before every pricing choice, that the
// candidate sets equal a fresh evaluation of their definitions (each while
// it is marked current) and panics on a difference.
func debugCheckCandidates(s *solver) {
	if err := s.staleCandidates(); err != nil {
		panic(fmt.Sprintf("lp debugchecks: iteration %d: %v", s.iters, err))
	}
}

// debugCheckDuals asserts, whenever computeDuals reuses y under yFresh, that
// a fresh solve of Bᵀ·y = c_B gives every entry bit for bit, and panics on
// a difference.
func debugCheckDuals(s *solver) {
	y := make([]float64, s.m)
	for i := range y {
		y[i] = s.cost[s.basis[i]]
	}
	s.fac.Btran(y, allRows(make([]int32, 0, s.m), s.m))
	for i, v := range y {
		if math.Float64bits(v) != math.Float64bits(s.y[i]) {
			panic(fmt.Sprintf("lp debugchecks: iteration %d: reused dual y[%d] = %v, a fresh solve gives %v",
				s.iters, i, s.y[i], v))
		}
	}
}
