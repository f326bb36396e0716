package mip

import (
	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
)

// LU factor captures, bases and solution vectors of one search.
//
// A node relaxation's final factorization is captured (lp.Instance.
// CaptureFactors) only when something will read it: the children of a
// fractional optimum warm-start from it, and so does the pricing restart
// of any optimum when pricers are registered. A capture holds the solver's
// LU base by reference and copies only its eta file; every warm start
// from it shares that base and appends its own pivots to storage of its
// own. The search hands a capture back to the instance (lp.Instance.Reuse)
// once its last reader is done, which ends its hold on the base: the base
// returns to the instance's pool once nothing else holds it, for later
// refactorizations, and the capture's storage serves the next capture. The basis snapshot a warm start reads with the factors follows
// the same rules:
//
//   - a branch's pair (its parent's, shared by both children) once both
//     children are retired, i.e. committed or pruned;
//   - a node's own restart pair (the warm start a pricing or cut round
//     restarts the node from) once the restarted relaxation is solved;
//   - a committed result's pair that no branch adopted (an integral,
//     infeasible or dominated relaxation) once the node is retired.
//
// A relaxation's X and Duals are done once the search has read them:
// branched on, separated, priced, rounded or copied into the incumbent.
// The root's first relaxation is the exception: Result.Root keeps it.
//
// All of it is the instance's storage for as long as it lives: the search
// hands back, when it ends, the captures the open nodes still hold, and the
// instance hands every piece to its next solve or capture that needs one. An instance that Recompile compiles one problem after
// another into (SolveFrom) keeps what its size rule allows for the next
// search.

// recycle hands back a warm-start pair whose last reader is done (see the
// rules above). nil halves are ignored.
func (s *searcher) recycle(b *lp.Basis, f *sparselu.Factors) {
	if b != nil || f != nil {
		s.inst.Reuse(lp.Result{Basis: b, Factors: f})
	}
}

// dropVecs hands back the X and Duals of a relaxation the search has
// finished reading, unless they are the root record's.
func (s *searcher) dropVecs(res lp.Result) {
	if len(res.X) > 0 && len(s.root.X) > 0 && &res.X[0] == &s.root.X[0] {
		return
	}
	s.inst.Reuse(lp.Result{X: res.X, Duals: res.Duals})
}

// drop hands back a heuristic solve's basis and vectors once the search
// has finished reading them; its factors, if captured, are the dive's,
// which the dive hands back itself.
func (s *searcher) drop(res lp.Result) {
	s.recycle(res.Basis, nil)
	s.dropVecs(res)
}

// restartFrom points nd's next relaxation at a warm start (nil for a cold
// one) and recycles the restart pair of nd's previous round, whose solve
// is done. The pair nd inherited from its branch stays with the branch.
func (s *searcher) restartFrom(nd *node, basis *lp.Basis, fac *sparselu.Factors) {
	s.recycle(ownWarm(nd))
	nd.basis, nd.fac = basis, fac
}

// retire is called once nd will never be solved again, committed or
// pruned. It recycles nd's own restart pair, the committed result's pair
// (b, f) when no branch adopted it, and the branch's pair once nd's sibling
// is retired too.
//
//hot:path
func (s *searcher) retire(nd *node, b *lp.Basis, f *sparselu.Factors) {
	s.recycle(ownWarm(nd))
	s.recycle(b, f)
	if br := nd.br; br != nil {
		if br.open--; br.open == 0 {
			s.recycle(br.basis, br.fac)
		}
	}
}

// ownWarm returns nd's own restart pair, or nils while nd still
// warm-starts from the pair its branch owns.
func ownWarm(nd *node) (*lp.Basis, *sparselu.Factors) {
	if nd.br != nil && nd.basis == nd.br.basis {
		return nil, nil
	}
	return nd.basis, nd.fac
}

// release ends the search's hold on the instance's storage: the open nodes
// are retired, so their branches' captures are done. The search must not
// solve again.
func (s *searcher) release() {
	for _, nd := range s.open {
		s.retire(nd, nil, nil)
	}
	s.open = nil
}
