package mip

import (
	"sync"

	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
)

// LU factor buffers of one search.
//
// A node relaxation's final factorization is captured (lp.Instance.
// CaptureFactors) only when something will read it: the children of a
// fractional optimum warm-start from it, and so does the pricing restart
// of any optimum when pricers are registered. The capture goes into a
// buffer from the search's free list, and the buffer returns to the list
// once its last reader is done:
//
//   - a branch's buffer (its parent's factors, shared by both children)
//     once both children are retired, i.e. committed or pruned;
//   - a node's own restart buffer (the factors a pricing or cut round
//     restarts the node from) once the restarted relaxation is solved;
//   - a committed result's buffer that no branch adopted (an integral or
//     dominated optimum) once the node is retired.
//
// Only the serial engine recycles. With speculation, a pruned or stale
// node's task may still be reading its parent's factors on a worker, so the
// parallel engine leaves its buffers to the collector. The handed root's
// factors belong to the caller and are never recycled either.

// facPool is the search-local free list of factor buffers. Workers take
// from it concurrently; only the committer returns to it.
type facPool struct {
	mu   sync.Mutex
	free []*sparselu.Factors
}

// get returns a recycled buffer, or a new one when the list is empty.
func (p *facPool) get() *sparselu.Factors {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return &sparselu.Factors{}
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return f
}

// recycle returns a search-owned buffer whose last reader is done to the
// free list (see the rules above); nil, the caller's handed-root factors
// and everything under speculation are ignored.
func (s *searcher) recycle(f *sparselu.Factors) {
	if f == nil || f == s.handedFac || s.eng.speculate {
		return
	}
	s.facs.mu.Lock()
	s.facs.free = append(s.facs.free, f)
	s.facs.mu.Unlock()
}

// restartFrom points nd's next relaxation at a warm start (nil for a cold
// one) and recycles the restart buffer of nd's previous round, whose solve
// is done. The buffer nd inherited from its branch stays with the branch.
func (s *searcher) restartFrom(nd *node, basis *lp.Basis, fac *sparselu.Factors) {
	s.recycle(ownFac(nd))
	nd.basis, nd.fac = basis, fac
	nd.task = nil
}

// retire is called by the committer once nd will never be solved again,
// committed or pruned. It recycles nd's own restart buffer, drop (the
// committed result's factors when no branch adopted them), and the
// branch's buffer once nd's sibling is retired too.
func (s *searcher) retire(nd *node, drop *sparselu.Factors) {
	s.recycle(ownFac(nd))
	s.recycle(drop)
	if br := nd.br; br != nil {
		if br.open--; br.open == 0 {
			s.recycle(br.fac)
		}
	}
}

// ownFac returns nd's own restart buffer, or nil while nd still warm-starts
// from the factors its branch owns.
func ownFac(nd *node) *sparselu.Factors {
	if nd.br != nil && nd.fac == nd.br.fac {
		return nil
	}
	return nd.fac
}
