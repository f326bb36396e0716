package lp

import (
	"sync"

	"tvnep/internal/linalg/sparselu"
)

// Workspaces is a bounded, caller-owned stash of the storage a stream of
// short-lived solves recycles instead of allocating: idle simplex
// workspaces, one instance's compiled storage (see Compile and Recycle),
// and the LU factor buffers, solution vectors and basis snapshots of
// results the caller has finished reading (see Factors and Reuse). An
// instance attached with UseWorkspaces takes its workspace from the stash
// on its first solve and the storage of its results on every solve, and
// Release hands the workspace back, so a caller that solves one admission
// decision after another allocates only when the stash runs dry. Recycled
// storage is zeroed or overwritten exactly as fresh storage is, so which
// piece a solve receives never changes a result. The package keeps no
// stash of its own. Safe for concurrent use.
type Workspaces struct {
	mu   sync.Mutex
	idle []*solver
	max  int
	// peak is a decaying maximum of the sizes (structural plus slack
	// columns) of the workspaces handed back: each Release raises it to
	// the workspace's size or lowers it by 1/peakDecay (see sight). The
	// stash keeps storage only while its capacity is within twice peak.
	peak int
	// compiled is an instance whose compiled storage Recycle handed back
	// for the next Compile; nil when there is none.
	compiled *Instance
	// Idle factor buffers (at most factorSlots), bases, and solution and
	// dual vectors (at most bufferSlots each).
	facs  []*sparselu.Factors
	bases []*Basis
	vecs  [2][][]float64 // indexed by solutionVec and dualVec
}

// Kinds of result vectors the stash keeps apart, so each is drawn at the
// length it is usually needed at: structural values (Result.X) and row
// duals (Result.Duals).
const (
	solutionVec = iota
	dualVec
)

// peakDecay sets how fast Workspaces.peak forgets a large instance: by
// 1/peakDecay per Release, so storage grown for a size the stream stops
// producing is dropped about a dozen of them later, while storage for sizes
// that recur every few decisions stays.
const peakDecay = 16

// factorSlots caps the stash's idle factor buffers. A serial
// branch-and-bound search holds one per branch whose children are not both
// retired, plus its dive buffer; over the 4000-request admission traces of
// seeds 1 and 3, 95% of the searches hold at most 4 at once
// (EXPERIMENTS.md, "Garbage-free branch and bound"). A buffer is sized by
// its basis dimension, 50–100 kB at admission sizes, and every slot is
// retained heap for the rest of the stream: a fifth slot saved about 4% of
// a decision's bytes and kept up to 0.09 MiB more at rest.
const factorSlots = 4

// bufferSlots caps each of the stash's idle lists of bases, solution
// vectors and dual vectors: a basis follows its factor buffer, so a search
// holds about as many, but each is a few kilobytes, so the list is long
// enough for more than 99% of the searches of the same traces.
const bufferSlots = 8

// NewWorkspaces returns an empty stash that keeps at most max idle
// workspaces; Release drops any beyond that.
func NewWorkspaces(max int) *Workspaces { return &Workspaces{max: max} }

// fits reports whether storage of capacity c is within what the stash
// keeps: twice the peak; w.mu must be held.
func (w *Workspaces) fits(c int) bool { return c <= 2*w.peak }

// room returns the capacity storage of k entries drawing on w grows to when
// it has to grow: a sixteenth of headroom, so a problem a little larger
// than the last, or an instance a search grew by appending cut rows and
// priced columns, is compiled into the same storage again instead of
// regrowing it. The stash judges storage by its capacity (see fits), so
// more headroom would only make it drop storage sooner. A nil w gives k:
// storage without a stash is sized exactly.
func (w *Workspaces) room(k int) int {
	if w == nil {
		return k
	}
	return k + k/16
}

// take pops the idle workspace best fitting an instance of size N — the
// smallest that holds N without growing, else the largest — or returns nil
// when there is none (or w is nil). Handing a small instance the small
// workspace keeps the large one for the large instances that grew it.
func (w *Workspaces) take(N int) *solver {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return popBest(&w.idle, workspaceCap, N)
}

// workspaceCap is the size a workspace is judged and fitted by: the
// capacity of its per-column slices.
func workspaceCap(s *solver) int { return cap(s.lb) }

// pop removes and returns the last piece of *list, or the zero value when
// the list is empty; w.mu must be held.
func pop[T any](list *[]T) (v T) {
	l := *list
	if n := len(l); n > 0 {
		v = l[n-1]
		clear(l[n-1:])
		*list = l[:n-1]
	}
	return v
}

// popBest removes and returns the piece of *list that best serves size n
// (see servesBetter), or the zero value when the list is empty; w.mu must
// be held.
func popBest[T any](list *[]T, size func(T) int, n int) (v T) {
	l := *list
	best := -1
	for i, x := range l {
		if best < 0 || servesBetter(size(x), size(l[best]), n) {
			best = i
		}
	}
	if best < 0 {
		return v
	}
	v, l[best] = l[best], l[len(l)-1]
	*list = l[:len(l)-1]
	clear(l[len(l)-1:])
	return v
}

// servesBetter reports whether storage of capacity a serves size N better
// than storage of capacity b: storage that holds N beats storage that has
// to grow; of two that hold it the smaller wins, of two that grow the
// larger.
func servesBetter(a, b, N int) bool {
	if (a >= N) != (b >= N) {
		return a >= N
	}
	if a >= N {
		return a < b
	}
	return a > b
}

// UseWorkspaces makes w the source the instance draws its workspace and
// result storage from and Release returns the workspace to.
func (inst *Instance) UseWorkspaces(w *Workspaces) { inst.src = w }

// Workspaces returns the stash the instance draws from, nil when it keeps
// its own storage.
func (inst *Instance) Workspaces() *Workspaces { return inst.src }

// Release hands the instance's workspace back to its Workspaces source, for
// a caller that is done solving on the instance. The instance stays usable
// (its next solve draws a workspace again), and Release changes none of its
// bounds, rows or columns. Without a source the workspace stays with the
// instance. It is dropped instead of stashed when the source is full, or
// when it has more than twice the capacity of the sizes the source has
// recently seen (see Workspaces.peak): a workspace grown for an unusually
// large instance would otherwise pin that peak footprint for the rest of
// the stream, while one grown for sizes that keep recurring is kept however
// small the instance releasing it. Idle storage the lowered peak no longer
// keeps is dropped with it (see prune).
func (inst *Instance) Release() {
	s := inst.sv
	if inst.src == nil || s == nil {
		return
	}
	inst.sv = nil
	// Drop every reference into the instance's storage and the caller's
	// warm start so an idle workspace keeps no dead model alive.
	s.inst, s.fac, s.preFac, s.opts = nil, nil, nil, Options{}
	clear(s.refIdx)
	clear(s.refVal)
	w := inst.src
	w.mu.Lock()
	w.sight(s.N)
	if len(w.idle) < w.max && w.fits(cap(s.lb)) {
		w.idle = append(w.idle, s)
	} else {
		w.drop(s)
	}
	w.mu.Unlock()
}

// drop lets go of a workspace the stash does not keep, offering its factor
// buffers to the stash's own list, where they fit and there is room: their
// size tracks the basis dimension, not the workspace's; w.mu must be held.
func (w *Workspaces) drop(s *solver) {
	for _, f := range s.facBuf {
		if f != nil {
			w.facs = keep(w, w.facs, factorSlots, f, f.Cap())
		}
	}
}

// sight records a workspace of size N coming back: it raises the peak to N
// or lowers it by 1/peakDecay, and prunes what the lowered peak no longer
// keeps; w.mu must be held.
func (w *Workspaces) sight(N int) {
	w.peak = max(N, w.peak-w.peak/peakDecay)
	w.prune()
}

// prune drops every idle piece of storage the peak no longer keeps, so
// storage grown for a size the stream stopped producing goes whether or
// not a caller hands it back again; w.mu must be held. The compiled storage
// is left alone: the next Compile reuses it anyway.
func (w *Workspaces) prune() {
	for _, s := range w.idle {
		if !w.fits(workspaceCap(s)) {
			w.drop(s)
		}
	}
	w.idle = dropUnfit(w, w.idle, workspaceCap)
	w.facs = dropUnfit(w, w.facs, (*sparselu.Factors).Cap)
	w.bases = dropUnfit(w, w.bases, func(b *Basis) int { return cap(b.Status) })
	for k := range w.vecs {
		w.vecs[k] = dropUnfit(w, w.vecs[k], func(v []float64) int { return cap(v) })
	}
}

// dropUnfit removes from list, in place, the pieces whose capacity (by
// size) no longer fits the stash; w.mu must be held.
func dropUnfit[T any](w *Workspaces, list []T, size func(T) int) []T {
	k := 0
	for _, v := range list {
		if w.fits(size(v)) {
			list[k] = v
			k++
		}
	}
	clear(list[k:])
	return list[:k]
}

// Compile is NewInstance for a caller that compiles one short-lived problem
// after another (one admission decision after another): p is compiled into
// the storage of the instance the last Recycle handed back, when w holds
// one, and the instance is attached to w as by UseWorkspaces. The result
// equals NewInstance(p)'s, and a stream of problems allocates compiled
// storage only where one outgrows the storage w kept.
func (w *Workspaces) Compile(p *Problem) *Instance {
	w.mu.Lock()
	inst := w.compiled
	w.compiled = nil
	w.mu.Unlock()
	if inst == nil {
		inst = &Instance{}
	}
	inst.src = w
	inst.compile(p)
	return inst
}

// Recycle ends an instance obtained from Workspaces.Compile: it releases
// the workspace and hands the instance's compiled storage to the source for
// the next Compile, which keeps it under Release's rule: only while its
// capacity is within twice the sizes the source has recently seen. It
// reports whether the storage was kept. The instance must not be used
// afterwards.
func (inst *Instance) Recycle() bool {
	inst.Release()
	w := inst.src
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// lb (n+m, with the room of compile and the rows appended since) has the
	// compiled storage's dimensions.
	if !w.fits(cap(inst.lb)) {
		return false
	}
	inst.p = nil // the idle storage keeps no dead model alive
	w.compiled = inst
	return true
}

// Factors returns the idle factor buffer best fitting a basis of dimension
// m — the smallest that holds it without growing, else the largest — or a
// new one when the stash holds none (or w is nil). The caller owns it until
// it hands it back with Reuse.
func (w *Workspaces) Factors(m int) *sparselu.Factors {
	if w == nil {
		return &sparselu.Factors{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if f := popBest(&w.facs, (*sparselu.Factors).Cap, m); f != nil {
		return f
	}
	return &sparselu.Factors{}
}

// Reuse hands the storage of a result back to the stash: every non-nil one
// of res's X, Duals, Basis and Factors. The caller must be done reading
// each of them, and so must everyone it shared them with: a later solve on
// any instance drawing from w overwrites them. Each is kept under the
// stash's rules (at most factorSlots or bufferSlots of a kind, capacity
// within twice the recently seen sizes) and dropped otherwise. A factor
// buffer is judged by its basis dimension, which is below the instance
// size the peak counts. Reuse on a nil stash does nothing.
//
//hot:path
func (w *Workspaces) Reuse(res Result) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if res.X != nil {
		w.vecs[solutionVec] = keep(w, w.vecs[solutionVec], bufferSlots, res.X, cap(res.X))
	}
	if res.Duals != nil {
		w.vecs[dualVec] = keep(w, w.vecs[dualVec], bufferSlots, res.Duals, cap(res.Duals))
	}
	if b := res.Basis; b != nil {
		w.bases = keep(w, w.bases, bufferSlots, b, cap(b.Status))
	}
	if f := res.Factors; f != nil {
		w.facs = keep(w, w.facs, factorSlots, f, f.Cap())
	}
}

// keep appends v of capacity c to the idle list when the list holds fewer
// than slots and c fits the stash; w.mu must be held.
func keep[T any](w *Workspaces, list []T, slots int, v T, c int) []T {
	if len(list) < slots && w.fits(c) {
		list = append(list, v) //lint:allow hotalloc -- grows once, to at most slots
	}
	return list
}

// vector returns a zeroed vector of the given kind and length n from the
// idle list, or fresh storage when the list is empty (or w is nil).
func (w *Workspaces) vector(kind, n int) []float64 {
	var v []float64
	if w != nil {
		w.mu.Lock()
		v = pop(&w.vecs[kind])
		w.mu.Unlock()
	}
	return fit(v, n)
}

// basis returns a basis snapshot of m basic positions over N columns, from
// the idle list or fresh (also when w is nil). Its contents are
// unspecified: the caller overwrites them.
func (w *Workspaces) basis(m, N int) *Basis {
	var b *Basis
	if w != nil {
		w.mu.Lock()
		b = pop(&w.bases)
		w.mu.Unlock()
	}
	if b == nil {
		b = &Basis{} //lint:allow hotalloc -- until the stash holds a basis
	}
	b.Basic, b.Status = fit(b.Basic, m), fit(b.Status, N)
	return b
}
