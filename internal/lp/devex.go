package lp

// Pricing. The primal uses Devex (Harris 1973): approximate steepest-edge
// weights maintained against a reference framework, pricing entering columns
// by d_j²/w_j instead of the raw Dantzig rule |d_j|. The dual uses dual
// steepest-edge (Forrest–Goldfarb 1992) in its cheap-initialization form
// (Koberstein): leaving rows are priced by infeasibility²/β_i where
// β_i ≈ ‖B⁻ᵀe_i‖², weights start at 1 and are corrected incrementally —
// with the leaving row's weight replaced by its exact value each pivot,
// since the pivot row ρ_r = B⁻ᵀe_r is computed anyway.

const (
	// devexMax bounds the primal weights; exceeding it resets the reference
	// framework (all weights back to 1).
	devexMax = 1e8
	// priceSectionMin is the smallest section of the primal's partial
	// pricing, in column-index space; tiny problems degrade to one section
	// over every column. The floor is deliberately wide: on the TVNEP models
	// narrow sections pick weak entering columns whose effect compounds
	// through the branch-and-bound trajectory (measured as 2-5x the node
	// count). A wide section costs little, because pricing walks only the
	// section's members of the candidate set, not its columns.
	priceSectionMin = 384
)

// devexPrimalUpdate refreshes the entering-column weights for the pivot in
// which column q enters at row r. Must run after pivotRow(r) (it reads
// s.arow over the hyper-sparse stack s.arowNZ) and before the basis swap
// (it relies on the pre-pivot nonbasic set). leaving is the column exiting
// the basis. Columns off the pivot row's support keep their weights, so the
// loop runs over the stack instead of all N columns.
func (s *solver) devexPrimalUpdate(q, r, leaving int) {
	arq := s.arow[q]
	if arq == 0 {
		return
	}
	wq := s.devexW[q]
	scale := wq / (arq * arq)
	reset := false
	for _, j := range s.arowNZ {
		if s.vstat[j] == vsBasic || int(j) == q {
			continue
		}
		a := s.arow[j]
		if a == 0 {
			continue
		}
		if cand := a * a * scale; cand > s.devexW[j] {
			if cand > devexMax {
				reset = true
				break
			}
			s.devexW[j] = cand
		}
	}
	if reset {
		for j := range s.devexW {
			s.devexW[j] = 1
		}
		return
	}
	if wl := scale; wl > 1 {
		s.devexW[leaving] = wl
	} else {
		s.devexW[leaving] = 1
	}
}

// dseUpdate refreshes the dual steepest-edge weights β_i = ‖B⁻ᵀe_i‖² for
// the pivot in which column q enters at row r. s.alpha must hold the
// FTRAN'd entering column and s.rho still the pivot row B⁻ᵀe_r (from
// pivotRow); s.tau receives B⁻¹ρ_r, the one extra FTRAN this rule costs per
// iteration. All three are walked over their patterns. Must run before the
// basis swap.
//
// With β_r taken exactly as ‖ρ_r‖² (free — ρ_r is already computed), the
// Forrest–Goldfarb recurrence for the post-pivot weights is
//
//	β̂_r = β_r/α_r²
//	β̂_i = β_i − 2·(α_i/α_r)·τ_i + (α_i/α_r)²·β_r,  τ = B⁻¹ρ_r
//
// so rows untouched by the entering column (α_i = 0) keep their weights.
// The exact β_r each iteration is what lets the cheap all-ones
// initialization converge to true steepest-edge behavior after a warm
// start.
//
// The recurrence is only exact when β_i itself is exact. Under the cheap
// initialization a stale (too small) β_i can drive the computed value
// negative — the floor would then overprice that row by orders of magnitude
// and pricing thrashes. The standard safeguard clamps the update from below
// at (α_i/α_r)²·β_r, the part of the new row norm contributed by the pivot
// row, which keeps stale weights from collapsing.
func (s *solver) dseUpdate(r int) {
	alpha := s.alpha
	ar := alpha[r]
	if ar == 0 {
		return
	}
	betaR := 0.0
	for _, i := range s.rhoNZ { // ascending: the sum runs in row order
		betaR += s.rho[i] * s.rho[i]
	}
	for _, i := range s.tauNZ {
		s.tau[i] = 0
	}
	for _, i := range s.rhoNZ {
		s.tau[i] = s.rho[i]
	}
	s.tauNZ = s.fac.Ftran(s.tau, append(s.tauNZ[:0], s.rhoNZ...))
	for _, i32 := range s.alphaNZ {
		i := int(i32)
		if i == r {
			continue
		}
		a := alpha[i]
		if a == 0 {
			continue
		}
		k := a / ar
		nb := s.dualW[i] - 2*k*s.tau[i] + k*k*betaR
		if low := k * k * betaR; nb < low {
			nb = low
		}
		if nb < dseFloor {
			nb = dseFloor
		}
		s.dualW[i] = nb
	}
	nb := betaR / (ar * ar)
	if nb < dseFloor {
		nb = dseFloor
	}
	s.dualW[r] = nb
}

// priceEntering selects an entering column, returning (-1, 0) at
// (partial-pricing-certified) optimality. It chooses among the columns of
// the candidate set cand (see candidates.go), which are exactly the
// nonbasic, non-fixed columns with a reduced cost of the wrong sign beyond
// OptTol.
//
// Under Bland's rule the lowest candidate wins (the anti-cycling
// guarantee). Otherwise pricing is sectional partial pricing over a ring of
// positions: starting from a rotating cursor, the positions are taken one
// section at a time, wrapping at the ring's end, and the first section
// holding a candidate yields its best Devex score d²/w; ties go to the first
// in section order. Only when every section comes up empty is optimality
// declared, so partial pricing never terminates early.
func (s *solver) priceEntering() (int, float64) {
	if s.bland {
		if j := s.cand.next(0, s.N); j < s.N {
			return j, s.d[j] // Bland: first eligible index
		}
		return -1, 0
	}
	// The ring is the N columns followed by m empty positions. Wrapping at
	// N instead changes the sections and with them the trajectories: on
	// BenchmarkAblationCSigmaBare it took 1070 LP iterations and 63 nodes
	// per op instead of 372 and 13, and three times the time. Retuning the
	// ring is a change of its own.
	ring := s.N + s.m
	section := max(ring/8, priceSectionMin)
	j := s.priceCursor
	if j >= ring {
		j = 0
	}
	best, bestScore := -1, 0.0
	for scanned := 0; scanned < ring; {
		end := min(scanned+section, ring)
		// This section covers the positions j, j+1, … taken modulo ring.
		hi := j + end - scanned
		if hi <= ring {
			best, bestScore = s.priceRange(j, hi, best, bestScore)
		} else {
			best, bestScore = s.priceRange(j, ring, best, bestScore)
			hi -= ring
			best, bestScore = s.priceRange(0, hi, best, bestScore)
		}
		if j = hi; j == ring {
			j = 0
		}
		scanned = end
		if best != -1 {
			s.priceCursor = j
			return best, s.d[best]
		}
	}
	return -1, 0
}

// priceRange walks the candidates in ring positions [lo, hi) in ascending
// order and returns the best by Devex score of them and the incumbent (best,
// bestScore); on a tie the earlier one stays. Positions from N on are empty.
func (s *solver) priceRange(lo, hi, best int, bestScore float64) (int, float64) {
	hi = min(hi, s.N)
	for j := s.cand.next(lo, hi); j < hi; j = s.cand.next(j+1, hi) {
		viol := s.enterViol(j)
		if score := viol * viol / s.devexW[j]; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best, bestScore
}
