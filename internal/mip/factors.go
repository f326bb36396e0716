package mip

import (
	"sync"

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
// A relaxation's X and Duals are done once the committer has read them:
// branched on, separated, priced, rounded or copied into the incumbent.
// The root's first relaxation is the exception: Result.Root keeps it.
//
// When the search draws from an lp.Workspaces stash (SolveFrom with a root
// instance attached to one), the free list outlives the search: it is
// filled from the stash when it runs dry, and handed back to it, with every
// buffer the open nodes still hold, when the search ends; bases and vectors
// go back to the stash as soon as they are done, and the stash hands them
// to the next solve that produces a result. Without a stash the free list
// is the search's own, and bases and vectors are left to the collector.
//
// Only the serial engine recycles. With speculation, a pruned or stale
// node's task may still be reading its parent's factors and basis on a
// worker, so the parallel engine leaves its storage to the collector. What
// the caller handed in — the root's result, its basis and its factors —
// belongs to the caller and is never recycled either.

// facPool is the search's free list of factor buffers, drawing on stash
// when it runs dry. Workers take from it concurrently; only the committer
// returns to it.
type facPool struct {
	mu    sync.Mutex
	free  []*sparselu.Factors
	stash *lp.Workspaces
}

// get returns a recycled buffer, or, when the list is empty, the stash's
// best fit for a basis of dimension m (a new one without a stash). Every
// capture of one search has about the same dimension, so the list itself
// needs no fitting.
func (p *facPool) get(m int) *sparselu.Factors {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return p.stash.Factors(m)
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return f
}

// recycles reports whether the search recycles its storage at all.
func (s *searcher) recycles() bool { return !s.eng.speculate }

// recycle returns a warm-start pair whose last reader is done: the factor
// buffer to the free list and the basis to the stash (see the rules above).
// nil halves, the caller's handed root and everything under speculation are
// ignored.
func (s *searcher) recycle(b *lp.Basis, f *sparselu.Factors) {
	if !s.recycles() {
		return
	}
	if f != nil && f != s.handed.Factors {
		s.facs.mu.Lock()
		s.facs.free = append(s.facs.free, f) //lint:allow hotalloc -- grows once, to the search's peak of live buffers
		s.facs.mu.Unlock()
	}
	if b != nil && b != s.handed.Basis {
		s.facs.stash.Reuse(lp.Result{Basis: b})
	}
}

// dropVecs hands back the X and Duals of a relaxation the committer has
// finished reading, unless they are the root record's.
func (s *searcher) dropVecs(res lp.Result) {
	if !s.recycles() || len(res.X) > 0 && len(s.root.X) > 0 && &res.X[0] == &s.root.X[0] {
		return
	}
	s.facs.stash.Reuse(lp.Result{X: res.X, Duals: res.Duals})
}

// drop hands back a heuristic solve's basis and vectors once the committer
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
	nd.task = nil
}

// retire is called by the committer once nd will never be solved again,
// committed or pruned. It recycles nd's own restart pair, the committed
// result's pair (b, f) when no branch adopted it, and the branch's pair
// once nd's sibling is retired too.
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
// the dive buffer go back to the stash. The search must not solve again.
func (s *searcher) release() {
	if !s.recycles() {
		return
	}
	for _, nd := range s.open {
		s.retire(nd, nil, nil)
	}
	s.open = nil
	s.recycle(nil, s.diveFac)
	s.diveFac = nil
	if s.facs.stash == nil {
		return
	}
	for i, f := range s.facs.free {
		s.facs.stash.Reuse(lp.Result{Factors: f})
		s.facs.free[i] = nil
	}
	s.facs.free = s.facs.free[:0]
}
