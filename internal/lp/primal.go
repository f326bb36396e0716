package lp

import "math"

// iterStatus is the outcome of a simplex phase.
type iterStatus int

const (
	iterOptimal iterStatus = iota
	iterUnbounded
	iterLimit
	iterInfeasible // dual simplex: primal infeasibility proven
	iterNumeric    // irrecoverable numerical trouble
)

// primal runs primal simplex iterations with the current cost vector until
// optimality, unboundedness or the iteration budget is exhausted.
//
//hot:path
func (s *solver) primal(maxIters int) iterStatus {
	feas := s.opts.FeasTol
	s.infeasOK = false // the primal's steps move xB without re-marking
	for ; s.iters < maxIters; s.iters++ {
		if s.iters&63 == 0 && s.interrupted() {
			return iterLimit
		}
		if !s.dValid {
			s.recomputeReducedCosts()
		}
		debugCheckCandidates(s)
		q, dq := s.priceEntering()
		if q == -1 {
			// Certify: incremental reduced costs may have drifted, so a
			// claimed optimum must survive a fresh recomputation.
			if s.dFresh {
				return iterOptimal
			}
			s.recomputeReducedCosts()
			continue
		}
		// Movement direction of the entering variable.
		dir := 1.0
		switch s.vstat[q] {
		case vsUpper:
			dir = -1
		case vsFree:
			if dq > 0 {
				dir = -1
			}
		}
		s.ftran(q)

		// Ratio test. t is the allowed movement of x_q along dir.
		t := math.Inf(1)
		if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
			t = s.ub[q] - s.lb[q] // bound-flip distance
		}
		leave, leaveStat := -1, vsLower
		leaveAbs := 0.0
		for _, i32 := range s.alphaNZ {
			i := int(i32)
			a := s.alpha[i]
			if math.Abs(a) <= pivTol {
				continue
			}
			bi := int(s.basis[i])
			delta := -dir * a // rate of change of x_B(i)
			var ratio float64
			var st int8
			if delta < 0 {
				if math.IsInf(s.lb[bi], -1) {
					continue
				}
				ratio = (s.xB[i] - s.lb[bi] + feas) / -delta
				st = vsLower
			} else {
				if math.IsInf(s.ub[bi], 1) {
					continue
				}
				ratio = (s.ub[bi] - s.xB[i] + feas) / delta
				st = vsUpper
			}
			if ratio < 0 {
				ratio = 0
			}
			better := ratio < t-ratioTieTol
			tie := !better && ratio <= t+ratioTieTol
			if s.bland {
				if better || (tie && (leave == -1 || bi < int(s.basis[leave]))) {
					t, leave, leaveStat, leaveAbs = ratio, i, st, math.Abs(a)
				}
			} else if better || (tie && math.Abs(a) > leaveAbs) {
				t, leave, leaveStat, leaveAbs = ratio, i, st, math.Abs(a)
			}
		}
		if math.IsInf(t, 1) {
			return iterUnbounded
		}
		// Remove the feasibility-tolerance slack we added to the ratios.
		if t > 0 && leave >= 0 {
			bi := int(s.basis[leave])
			var exact float64
			if leaveStat == vsLower {
				exact = (s.xB[leave] - s.lb[bi]) / (dir * s.alpha[leave])
			} else {
				exact = (s.ub[bi] - s.xB[leave]) / (-dir * s.alpha[leave])
			}
			if exact < 0 {
				exact = 0
			}
			t = exact
		}
		flipDist := math.Inf(1)
		if !math.IsInf(s.lb[q], -1) && !math.IsInf(s.ub[q], 1) {
			flipDist = s.ub[q] - s.lb[q]
		}
		if flipDist <= t || leave == -1 {
			// Bound flip: x_q travels to its opposite bound.
			t = flipDist
			if math.IsInf(t, 1) {
				return iterUnbounded
			}
			for _, i := range s.alphaNZ {
				s.xB[i] -= dir * t * s.alpha[i]
			}
			s.xbFresh = false
			if s.vstat[q] == vsLower {
				s.vstat[q] = vsUpper
			} else {
				s.vstat[q] = vsLower
			}
			s.markCand(q)
			s.noteProgress(t)
			continue
		}
		// Basis change: update Devex weights and reduced costs via the
		// pivot row BEFORE the basis swap, then apply the pivot.
		s.pivotRow(leave)
		s.devexPrimalUpdate(q, leave, int(s.basis[leave]))
		s.applyPivotToReducedCosts(q, int(s.basis[leave]))
		enterVal := s.colValue(q) + dir*t
		for _, i := range s.alphaNZ {
			s.xB[i] -= dir * t * s.alpha[i]
		}
		s.pivot(q, leave, enterVal, leaveStat)
		s.noteProgress(t)
	}
	return iterLimit
}

// noteProgress tracks degeneracy and enables Bland's rule on long stalls.
func (s *solver) noteProgress(step float64) {
	if step <= degenStepTol {
		s.stall++
		if s.stall > stallLimit {
			s.bland = true
		}
	} else {
		s.stall = 0
		s.bland = false
	}
}

// crashSlackBasis installs the all-slack basis every cold solve starts
// from: every slack basic at its row activity, structural columns at their
// natural bounds. Under the all-zero cost vector every reduced cost is zero,
// so this basis is dual feasible no matter how many rows it violates — the
// dual simplex can then restore primal feasibility directly (and the
// factorization is diagonal, so the initial refactor is trivial).
func (s *solver) crashSlackBasis() error {
	n, m := s.inst.n, s.m
	clear(s.cost)
	for j := 0; j < n; j++ {
		s.vstat[j] = s.defaultStatus(j)
		s.inBasis[j] = -1
	}
	act := s.work
	clear(act)
	for j := 0; j < n; j++ {
		v := 0.0
		switch s.vstat[j] {
		case vsLower:
			v = s.lb[j]
		case vsUpper:
			v = s.ub[j]
		}
		if v == 0 {
			continue
		}
		for k, r := range s.inst.colIdx[j] {
			act[r] += s.inst.colVal[j][k] * v
		}
	}
	// The crash used s.work densely: its pattern is every row.
	s.workNZ = allRows(s.workNZ, m)
	for i := 0; i < m; i++ {
		slack := n + i
		s.basis[i] = int32(slack)
		s.inBasis[slack] = int32(i)
		s.vstat[slack] = vsBasic
		s.xB[i] = act[i]
	}
	return s.refactor()
}
