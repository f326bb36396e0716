package mip

import (
	"math"

	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
)

// Node relaxations and branching.
//
// The search evaluates every node relaxation on its one instance, which
// carries every cut row and priced column committed so far; the heuristics
// solve on it too. Every node installs its box from scratch (applyBounds)
// and warm-starts from the basis and factors it carries, so a relaxation is
// a pure function of the committed rows and columns and of the node, and
// sharing the instance and its workspace with the heuristics changes no
// decision.

// branch is the deterministic pair of children created from one fractional
// relaxation. dive is the side the fractional value leans to. basis and fac
// are the relaxation's final basis and captured factorization, which both
// children warm-start from; open counts the children not yet retired (see
// factors.go).
type branch struct {
	dive, park *node
	basis      *lp.Basis
	fac        *sparselu.Factors
	open       int
}

// relax evaluates nd's relaxation on the search's instance, whose bounds
// applyBounds has set to nd's box, warm-started from nd's basis and
// factors. col is the column a fractional optimum branches on, -1
// otherwise.
func (s *searcher) relax(nd *node) (res lp.Result, col int) {
	lpo := lp.Options{Context: s.ctx, WarmBasis: nd.basis, WarmFactors: nd.fac}
	if s.hasDL {
		lpo.Deadline = s.deadline
	}
	res = s.inst.Solve(&lpo)
	if res.Status != lp.StatusOptimal {
		return res, -1
	}
	col = s.fractional(res.X)
	// Capture the factors only for their readers: the children of a
	// fractional optimum, and the pricing restart of any optimum.
	if s.cols != nil || (col >= 0 && !s.rootOnly) {
		s.inst.CaptureFactors(&res, s.factors(s.inst.NumRows()))
	}
	return res, col
}

// makeBranch builds the deterministic child pair of a fractional node. Both
// children warm-start from the parent's final basis and captured factors,
// which the branch owns; the factors are shared read-only (every warm start
// copies them into its own solver).
func makeBranch(nd *node, col int, objMin float64, res lp.Result) *branch {
	v := res.X[col]
	br := &branch{basis: res.Basis, fac: res.Factors, open: 2}
	down := &node{
		parent: nd, br: br, col: col,
		lo: math.Inf(-1), hi: math.Floor(v),
		depth: nd.depth + 1, bound: objMin,
		basis: res.Basis, fac: res.Factors,
	}
	up := &node{
		parent: nd, br: br, col: col,
		lo: math.Ceil(v), hi: math.Inf(1),
		depth: nd.depth + 1, bound: objMin,
		basis: res.Basis, fac: res.Factors,
	}
	// Dive towards the side the fractional value leans to.
	br.dive, br.park = down, up
	if v-math.Floor(v) > 0.5 {
		br.dive, br.park = up, down
	}
	return br
}

// applyBounds installs the node's bound-override chain onto the search's
// instance, from the root box up. It reports false when the chain produces
// an empty interval (the node is trivially infeasible).
func (s *searcher) applyBounds(nd *node) bool {
	for j := range s.rootLB {
		s.inst.SetColBounds(j, s.rootLB[j], s.rootUB[j])
	}
	// Walk the chain root→leaf so deeper overrides win.
	var chain []*node
	for c := nd; c != nil && c.col >= 0; c = c.parent {
		chain = append(chain, c)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		lo, hi := s.inst.ColBounds(c.col)
		if c.lo > lo {
			lo = c.lo
		}
		if c.hi < hi {
			hi = c.hi
		}
		if lo > hi {
			return false
		}
		s.inst.SetColBounds(c.col, lo, hi)
	}
	return true
}
