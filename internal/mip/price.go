package mip

// Column generation, the column-side counterpart of the lazy-cut pipeline in
// cuts.go. Instead of emitting every variable into the root LP up front,
// callers register Pricer callbacks that examine the relaxation's dual values
// and return columns with improving reduced cost. The searcher keeps the
// returned columns in a deterministic pool (pool.go, deduplicated by an exact
// canonical-column key), appends the best-priced batch to the LP, and
// hot-restarts the same node from its own final basis — the appended columns
// ride the basis remap + primal restart in internal/lp, so a pricing round
// costs a handful of primal pivots, not a refactorization.
//
// Unlike cut separation, which is an optional strengthening, pricing runs to
// convergence at every node: a restricted master's objective is only a valid
// branch-and-bound node bound once no column prices in, so the per-node round
// cap exists purely as a safety net against a non-converging Pricer.

import (
	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// Column is one priced structural column: coefficients Val over the rows Idx
// of the LP relaxation, bounds [LB, UB] and objective coefficient Obj, all in
// the problem's original sense. Tag carries pricer-private payload (e.g. the
// substrate path a path-flow column encodes) through to the solution and its
// certificates, and is what identifies the column there.
type Column struct {
	Idx []int32
	Val []float64
	LB  float64
	UB  float64
	Obj float64
	Tag interface{}
}

// Pricer generates columns with improving reduced cost at a relaxation
// optimum. The contract has two parts, both load-bearing:
//
//   - Validity: every returned column must be a genuine variable of the full
//     (unrestricted) formulation — adding it may only ever enlarge the
//     feasible region toward the true relaxation, never change the problem.
//     The search prunes on node bounds taken from priced-out relaxations,
//     which is only sound when the full formulation is exactly the closure
//     of the restricted master under Price.
//   - Determinism: Price must be a pure function of (duals, x) (same point,
//     same columns, same order). The search calls it exactly once per
//     pricing round on deterministic points; any internal randomness or
//     iteration over unordered maps would make the search nondeterministic.
//
// duals is lp.Result.Duals at the node optimum (length = current LP rows,
// original sense); x is the relaxation point (length = current LP columns).
// Price may return columns that do not price in (they are pooled for later
// rounds) and may return duplicates (the pool deduplicates), but it must not
// mutate its arguments. A pricer that can prove no improving column exists
// must eventually return none, or the round cap stops the node's pricing
// with an invalid bound.
type Pricer interface {
	Price(duals []float64, x []float64) []Column
}

// ColumnStats summarizes the pricing work of one solve.
type ColumnStats struct {
	// ColsAtRoot is the number of structural LP columns the root relaxation
	// started with (the statically emitted variables).
	ColsAtRoot int
	// PricedCols is the number of columns appended by pricing over the whole
	// search.
	PricedCols int
	// Rounds is the number of pricing rounds that appended at least one
	// column.
	Rounds int
	// Offered is the total number of columns returned by pricers (before
	// deduplication).
	Offered int
	// PoolHits counts offered columns that were already pooled — the dedup
	// rate is PoolHits/Offered.
	PoolHits int
	// Evicted counts pooled-but-never-appended columns dropped by age-based
	// eviction.
	Evicted int
}

// price runs one pricing round at the node optimum res: offer every pricer's
// columns, append the best-priced batch to the search's instance, and age
// the pool. Returns the number of columns appended (0 → no column prices in: the relaxation value is the true
// node bound and the caller stops rounding).
func (s *searcher) price(res lp.Result) int {
	for _, pr := range s.opts.Pricers {
		for _, c := range pr.Price(res.Duals, res.X) {
			s.cols.offer(colOp(c), s.inst.NumRows())
		}
	}
	// The score is the sense-adjusted reduced cost: for a minimization
	// problem a column improves when its reduced cost is below
	// −PriceRedTol, for maximization above it.
	redCost := func(o *op) float64 {
		d := lp.CandidateReducedCost(o.obj, o.idx, o.val, res.Duals)
		if s.minimize {
			d = -d
		}
		return d
	}
	return s.commit(s.cols, s.cols.best(redCost, numtol.PriceRedTol, s.opts.PriceBatch))
}
