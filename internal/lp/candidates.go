package lp

import (
	"fmt"
	"math"
	"math/bits"
)

// Candidate sets. Both pricing loops choose from a set that the iteration
// keeps current instead of rescanning every column or row:
//
//   - cand holds the columns primal pricing may enter: nonbasic, not fixed,
//     with a reduced cost of the wrong sign beyond OptTol. It is rebuilt with
//     the reduced costs and re-marked wherever a column's reduced cost or
//     status changes (the pivot row's support, the entering and leaving
//     columns, bound flips).
//   - infeas holds the rows the dual may leave from: basic value outside its
//     bounds by more than FeasTol. The dual re-marks it over the pattern of
//     every update of xB it makes. Everything else that moves xB (computeXB,
//     the primal's steps) clears infeasOK instead, and the dual rebuilds the
//     set before its next choice. Only the dual pays for rebuilds: once per
//     run, and after each recomputation of xB inside it.
//
// The sets are walked in ascending index order and hold exactly the entries
// the full scans accepted, so every choice, and every trajectory, is the one
// the scans made.

// bitset is a set of indices below a fixed bound, one bit each.
type bitset []uint64

// words returns the number of words a bitset over n indices needs.
func words(n int) int { return (n + 63) >> 6 }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) put(i int, on bool) {
	if on {
		b[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// next returns the smallest member in [i, end), or end when there is none.
func (b bitset) next(i, end int) int {
	if i >= end {
		return end
	}
	w := i >> 6
	word := b[w] >> (uint(i) & 63) << (uint(i) & 63)
	for word == 0 {
		if w++; w<<6 >= end {
			return end
		}
		word = b[w]
	}
	if j := w<<6 | bits.TrailingZeros64(word); j < end {
		return j
	}
	return end
}

// enterViol returns how far nonbasic column j's reduced cost has the wrong
// sign for its status: positive when moving x_j off its bound improves the
// objective.
func (s *solver) enterViol(j int) float64 {
	d := s.d[j]
	switch s.vstat[j] {
	case vsLower:
		return -d
	case vsUpper:
		return d
	}
	return math.Abs(d) // vsFree
}

// isCand reports whether column j belongs in cand.
func (s *solver) isCand(j int) bool {
	return s.vstat[j] != vsBasic && !s.fixedCol(j) && s.enterViol(j) > s.opts.OptTol
}

// markCand re-derives column j's membership in cand.
func (s *solver) markCand(j int) { s.cand.put(j, s.isCand(j)) }

// rowViol returns how far row i's basic value lies outside its bounds, and
// whether the violated bound is the lower one.
func (s *solver) rowViol(i int) (v float64, below bool) {
	j := s.basis[i]
	v, below = s.lb[j]-s.xB[i], true
	if v2 := s.xB[i] - s.ub[j]; v2 > v {
		v, below = v2, false
	}
	return v, below
}

// isInfeas reports whether row i belongs in infeas.
func (s *solver) isInfeas(i int) bool {
	v, _ := s.rowViol(i)
	return v > s.opts.FeasTol
}

// markInfeas re-derives row i's membership in infeas.
func (s *solver) markInfeas(i int) { s.infeas.put(i, s.isInfeas(i)) }

// rebuildInfeas recomputes infeas from the current basic values.
func (s *solver) rebuildInfeas() {
	clear(s.infeas)
	for i := 0; i < s.m; i++ {
		s.markInfeas(i)
	}
	s.infeasOK = true
}

// leavingRow selects the dual's leaving row among the primal-infeasible
// basic variables: dual steepest-edge (infeasibility²/β_i) normally, raw
// most-infeasible under Bland's rule to keep the anti-cycling behavior
// unchanged. Ties go to the lowest row. It returns r = -1 when no row is
// infeasible, else the row, its violation and whether it lies below its
// lower bound.
func (s *solver) leavingRow() (r int, viol float64, below bool) {
	r = -1
	bestScore := 0.0
	for i := s.infeas.next(0, s.m); i < s.m; i = s.infeas.next(i+1, s.m) {
		v, isBelow := s.rowViol(i)
		score := v
		if !s.bland {
			score = v * v / s.dualW[i]
		}
		if score > bestScore {
			r, bestScore, viol, below = i, score, v, isBelow
		}
	}
	return r, viol, below
}

// staleCandidates compares the candidate sets with their definitions on the
// current state and describes the first difference: cand while the reduced
// costs are valid, infeas while infeasOK holds. It returns nil when the sets
// are exact.
func (s *solver) staleCandidates() error {
	if s.dValid {
		for j := 0; j < s.N; j++ {
			if got, want := s.cand.has(j), s.isCand(j); got != want {
				return fmt.Errorf("cand has column %d: %v, want %v (status %d, d %v)", j, got, want, s.vstat[j], s.d[j])
			}
		}
	}
	if s.infeasOK {
		for i := 0; i < s.m; i++ {
			if got, want := s.infeas.has(i), s.isInfeas(i); got != want {
				v, _ := s.rowViol(i)
				return fmt.Errorf("infeas has row %d: %v, want %v (violation %v)", i, got, want, v)
			}
		}
	}
	return nil
}
