package mip

import (
	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
)

// LU factor buffers, bases and solution vectors of one search.
//
// A node relaxation's final factorization is captured (lp.Instance.
// CaptureFactors) only when something will read it: the children of a
// fractional optimum warm-start from it, and so does the pricing restart
// of any optimum when pricers are registered. The capture goes into a
// buffer from the search's free list, and the buffer returns to the list
// once its last reader is done. The basis snapshot a warm start reads with
// the factors follows the same rules:
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
// The free list is filled from the search's instance (lp.Instance.Factors)
// when it runs dry, and handed back to it (lp.Instance.Reuse), with every
// buffer the open nodes still hold, when the search ends; bases and vectors
// go back to the instance as soon as they are done, and the instance hands
// them to its next solve that produces a result. An instance that
// Recompile compiles one problem after another into (SolveFrom) keeps them
// for the next search; one that is never recompiled keeps none, and leaves
// them to the collector.

// factors returns a buffer from the free list, or, when the list is empty,
// the instance's best fit for a basis of dimension m. Every capture of one
// search has about the same dimension, so the list itself needs no
// fitting.
func (s *searcher) factors(m int) *sparselu.Factors {
	n := len(s.facs)
	if n == 0 {
		return s.inst.Factors(m)
	}
	f := s.facs[n-1]
	s.facs[n-1] = nil
	s.facs = s.facs[:n-1]
	return f
}

// recycle returns a warm-start pair whose last reader is done: the factor
// buffer to the free list and the basis to the instance (see the rules
// above). nil halves are ignored.
func (s *searcher) recycle(b *lp.Basis, f *sparselu.Factors) {
	if f != nil {
		s.facs = append(s.facs, f) //lint:allow hotalloc -- grows once, to the search's peak of live buffers
	}
	if b != nil {
		s.inst.Reuse(lp.Result{Basis: b})
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
// has finished reading them; its factors, if captured, are the dive
// buffer's.
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

// release ends the search's hold on its recycled storage: the open nodes
// are retired, so their branches' buffers are done, and the free list and
// the dive buffer go back to the instance. The search must not solve again.
func (s *searcher) release() {
	for _, nd := range s.open {
		s.retire(nd, nil, nil)
	}
	s.open = nil
	s.recycle(nil, s.diveFac)
	s.diveFac = nil
	for i, f := range s.facs {
		s.inst.Reuse(lp.Result{Factors: f})
		s.facs[i] = nil
	}
	s.facs = s.facs[:0]
}
