package mip

// Lazy cut separation. Instead of emitting every known valid inequality into
// the root LP up front, callers register Separator callbacks that examine
// fractional relaxation points and return the inequalities those points
// violate. The searcher keeps the returned rows in a deterministic pool
// (pool.go, deduplicated by an exact canonical-row key), appends the most
// violated batch to the LP, and hot-restarts the same node from its own
// final basis — the appended rows ride the bordered LU extension in
// internal/lp, so a separation round costs a handful of dual pivots, not a
// refactorization.

import (
	"math"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// Cut is one linear inequality LB ≤ Σₖ Val[k]·x[Idx[k]] ≤ UB over the
// problem's structural columns. One-sided rows use ±Inf for the missing
// bound. A cut carries no label: the pool identifies it by its content.
type Cut struct {
	Idx []int32
	Val []float64
	LB  float64
	UB  float64
}

// Separator generates valid inequalities violated by a fractional relaxation
// point. The contract has two parts, both load-bearing:
//
//   - Validity: every returned cut must be satisfied by every feasible
//     integral solution of the MIP (global validity). The search keeps node
//     bounds, incumbents and warm bases across separation rounds, which is
//     only sound for rows that never exclude an integral feasible point.
//   - Determinism: Separate must be a pure function of x (same point, same
//     cuts, same order). The search calls it exactly once per separation
//     round on deterministic points; any internal randomness or iteration
//     over unordered maps would make the search nondeterministic.
//
// Separate may return cuts that are not violated by x (they are pooled for
// later rounds) and may return duplicates (the pool deduplicates), but it
// must not mutate x.
type Separator interface {
	Separate(x []float64) []Cut
}

// CutStats summarizes the separation work of one solve.
type CutStats struct {
	// RowsAtRoot is the number of LP rows the root relaxation started with
	// (the statically emitted constraints).
	RowsAtRoot int
	// SeparatedRows is the number of cut rows appended by separation over
	// the whole search.
	SeparatedRows int
	// Rounds is the number of separation rounds that appended at least one
	// row.
	Rounds int
	// Offered is the total number of cuts returned by separators (before
	// deduplication).
	Offered int
	// PoolHits counts offered cuts that were already pooled — the dedup
	// rate is PoolHits/Offered.
	PoolHits int
	// Evicted counts pooled-but-never-appended cuts dropped by age-based
	// eviction.
	Evicted int
}

// rootCutSeedSlack is the activity margin of the root seeding round: the
// first separation round at the root also appends pooled cuts that are
// within this slack of binding at the root optimum, not just violated ones.
// Near-active rows do not cut the current point, but they pin down which of
// the relaxation's alternate optima later re-solves land on — the same
// vertex-steering a static build gets from emitting the family up front —
// and on the benchmark models that steering is worth a ~2x smaller proof
// tree. Separators opt in simply by returning near-active members (the
// Separator contract always allowed unviolated cuts).
const rootCutSeedSlack = 0.5

// rowViolation is the signed amount by which x violates the cut: positive
// when violated, negative (the slack to the nearest bound) when satisfied.
func rowViolation(c Cut, x []float64) float64 {
	act := 0.0
	for k, j := range c.Idx {
		act += c.Val[k] * x[j]
	}
	v := math.Inf(-1)
	if !math.IsInf(c.LB, -1) {
		v = c.LB - act
	}
	if d := act - c.UB; d > v {
		v = d
	}
	if math.IsInf(v, -1) {
		v = 0 // bound-free row: vacuously satisfied
	}
	return v
}

// separate runs one separation round at x: offer every separator's cuts,
// append the most violated batch to the search's instance, and age the
// pool. Returns the number of rows appended (0 → the point is cut-free and
// the caller stops rounding). A seed round (the first root round) drops the
// batch cap and the violation floor to -rootCutSeedSlack so the near-active
// family members land in the root LP together.
func (s *searcher) separate(x []float64, seed bool) int {
	for _, sep := range s.opts.Separators {
		for _, c := range sep.Separate(x) {
			s.cuts.offer(cutOp(c), s.inst.NumCols())
		}
	}
	limit, minViol := cutBatch, numtol.CutViolTol
	if seed {
		limit, minViol = len(s.cuts.entries), -rootCutSeedSlack
	}
	viol := func(o *op) float64 { return rowViolation(o.cut(), x) }
	return s.commit(s.cuts, s.cuts.best(viol, minViol, limit))
}

// solveSeparated solves the node's relaxation, interleaving pricing and
// separation rounds: while a round adds columns or cuts, the same node is
// re-solved, warm-started from its own final basis and factors (appended
// rows ride the bordered factor extension, appended columns the basis
// remap + primal restart). Pricing runs first and to convergence — the
// relaxation value is only a valid node bound once no column prices in, so
// it runs at every node, on integral points too, and its per-node cap
// (maxPriceRounds) is a safety net rather than a budget. An infeasible
// relaxation gets Farkas pricing rounds from the same budget, and is
// returned infeasible once one appends nothing. Cut rounds follow:
// root nodes get rootCutRounds, tree nodes treeCutRounds. The LP work of
// every round is counted here. It returns the final relaxation and the
// column it branches on (-1 unless it is a fractional optimum).
func (s *searcher) solveSeparated(nd *node) (lp.Result, int) {
	root := nd.col == -1
	maxCutRounds := 0
	if s.cuts != nil {
		maxCutRounds = treeCutRounds
		if root {
			maxCutRounds = rootCutRounds
		}
	}
	cutRounds, priceRounds := 0, 0
	for {
		res, col := s.relax(nd)
		s.work.Add(LPWork(&res))
		if root && cutRounds == 0 && priceRounds == 0 {
			// The root's first relaxation (the root is solved once per
			// search). The search recycles its factors and basis, so the
			// record keeps neither.
			s.root = res
			s.root.Basis, s.root.Factors = nil, nil
		}
		if res.Status == lp.StatusInfeasible && s.cols != nil && priceRounds < maxPriceRounds {
			s.ray = s.inst.FarkasRay(&res, s.ray)
			if s.price(s.ray, nil) > 0 {
				// Restart cold: a basis left by a cold phase 1 is dual
				// feasible only for its zero costs. Such rounds are rare.
				priceRounds++
				s.restartFrom(nd, nil, nil)
				s.recycle(res.Basis, nil)
				continue
			}
		}
		if res.Status != lp.StatusOptimal {
			return res, col
		}
		if s.cols != nil && priceRounds < maxPriceRounds && s.price(res.Duals, res.X) > 0 {
			// Hot-restart the same node from its own final basis (the
			// appended columns enter nonbasic, so the basis stays valid after
			// the remap).
			priceRounds++
			s.restartFrom(nd, res.Basis, res.Factors)
			s.dropVecs(res)
			continue
		}
		// Integral points satisfy every valid cut by the Separator contract,
		// so only fractional optima are worth separating.
		if cutRounds >= maxCutRounds || col < 0 {
			return res, col
		}
		if s.separate(res.X, root && cutRounds == 0) == 0 {
			return res, col
		}
		cutRounds++
		// Hot-restart from the node's own final basis, as above. The root
		// instead restarts cold after a cut round: its relaxation is solved
		// once per search, and a from-scratch trajectory over the
		// strengthened row set reaches the same vertex a static build would
		// start from, which is what makes the two pipelines' trees
		// comparable.
		if root {
			s.restartFrom(nd, nil, nil)
			s.recycle(res.Basis, res.Factors)
		} else {
			s.restartFrom(nd, res.Basis, res.Factors)
		}
		s.dropVecs(res)
	}
}
