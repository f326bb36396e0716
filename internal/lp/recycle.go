package lp

// spares is what an instance keeps of the results its callers have
// finished reading (see Reuse): basis snapshots and solution and dual
// vectors, for its later solves, and the size rule that bounds them, the
// compiled storage, the workspace and the factorization workspace's pool
// across the problems Recompile compiles into it. Recycled storage is
// zeroed or overwritten exactly as fresh storage is, so which piece a
// solve receives never changes a result.
type spares struct {
	// on is set by the first Recompile. An instance that is never
	// recompiled sizes its storage exactly and keeps what Reuse hands back
	// for as long as it lives, which is one solve or search.
	on bool
	// peak is a decaying maximum of the sizes (structural plus slack
	// columns) the instance's problems grew to: each Recompile raises it to
	// the last problem's size or lowers it by 1/peakDecay. A recompiled
	// instance keeps storage only while its capacity is within twice peak.
	peak int
	// Idle bases, and solution and dual vectors (at most bufferSlots
	// each).
	bases []*Basis
	vecs  [2][][]float64 // indexed by solutionVec and dualVec
}

// Kinds of result vectors the instance keeps apart, so each is drawn at the
// length it is usually needed at: structural values (Result.X) and row
// duals (Result.Duals).
const (
	solutionVec = iota
	dualVec
)

// peakDecay sets how fast spares.peak forgets a large problem: by
// 1/peakDecay per Recompile, so storage grown for a size the stream stops
// producing is dropped about a dozen problems later, while storage for
// sizes that recur every few problems stays.
const peakDecay = 16

// factorSlots caps the LU bases and the idle captures the factorization
// workspace keeps across a Recompile (see sparselu.Workspace.Prune). A
// serial branch-and-bound search holds one capture per branch whose
// children are not both retired, plus its dive capture; over the
// 4000-request admission traces of seeds 1 and 3, 95% of the searches hold
// at most 4 at once (EXPERIMENTS.md, "Garbage-free branch and bound"). A
// base is sized by its basis dimension, a capture by its eta file, and
// every slot is retained heap for the rest of the stream. Within one
// problem's solves the workspace keeps all of them.
const factorSlots = 4

// bufferSlots caps each idle list of bases, solution vectors and dual
// vectors: a basis follows its capture, so a search holds about as many,
// but each is a few kilobytes, so the list is long enough for more than
// 99% of the searches of the same traces.
const bufferSlots = 8

// Recompile compiles p into inst in place of the problem it held, for a
// caller that solves one short-lived problem after another on one instance
// (one admission decision after another); inst may be the zero Instance.
// The result equals NewInstance(p)'s, and takes exactly its simplex path,
// but a stream of problems allocates compiled storage and a workspace only
// where one outgrows what the instance kept, and its solves draw result
// storage from what Reuse handed back.
//
// Recompile is also where the instance decides what it keeps. It raises
// its peak to the size the last problem grew to (rows and columns appended
// included) or lowers it by 1/peakDecay, and drops the workspace, the
// compiled storage, every idle buffer, pooled LU base and idle capture
// whose capacity (for a base its dimension, for a capture its eta
// entries) is more than twice the peak, and all but factorSlots bases and
// captures: storage grown for an unusually large problem would otherwise pin that
// footprint for the rest of the stream, while storage for sizes that keep
// recurring is kept however small the problem compiled into it.
func (inst *Instance) Recompile(p *Problem) {
	sp := &inst.spares
	sp.on = true
	if s := inst.sv; s != nil {
		sp.peak = max(s.N, sp.peak-sp.peak/peakDecay)
		sp.prune()
		inst.facWS.Prune(2*sp.peak, 2*sp.peak, factorSlots)
		// Drop every reference to the last problem and the caller's warm
		// start, so the next solve refits the workspace for p.
		s.inst, s.fac, s.extended, s.opts = nil, nil, false, Options{}
		clear(s.refIdx)
		clear(s.refVal)
		if !sp.fits(cap(s.lb)) {
			inst.sv = nil
		}
	}
	// lb (n+m, with the room of compile and the rows appended since) has the
	// compiled storage's dimensions.
	if !sp.fits(cap(inst.lb)) {
		*inst = Instance{sv: inst.sv, spares: inst.spares, facWS: inst.facWS}
	}
	inst.compile(p)
}

// fits reports whether storage of capacity c is within what the instance
// keeps: twice the peak once it is recompiled, anything before.
func (sp *spares) fits(c int) bool { return !sp.on || c <= 2*sp.peak }

// room returns the capacity the instance's storage of k entries grows to
// when it has to grow: on a recompiled instance a sixteenth of headroom, so
// a problem a little larger than the last, or an instance a search grew by
// appending cut rows and priced columns, is compiled into the same storage
// again instead of regrowing it. Recompile judges storage by its capacity
// (see fits), so more headroom would only make it drop storage sooner.
// Storage of an instance that is never recompiled is sized exactly.
func (inst *Instance) room(k int) int {
	if !inst.spares.on {
		return k
	}
	return k + k/16
}

// prune drops every idle buffer the peak no longer keeps, so storage grown
// for a size the stream stopped producing goes whether or not a caller
// hands it back again.
func (sp *spares) prune() {
	sp.bases = dropUnfit(sp, sp.bases, func(b *Basis) int { return cap(b.Status) })
	for k := range sp.vecs {
		sp.vecs[k] = dropUnfit(sp, sp.vecs[k], func(v []float64) int { return cap(v) })
	}
}

// dropUnfit removes from list, in place, the pieces whose capacity (by
// size) no longer fits.
func dropUnfit[T any](sp *spares, list []T, size func(T) int) []T {
	k := 0
	for _, v := range list {
		if sp.fits(size(v)) {
			list[k] = v
			k++
		}
	}
	clear(list[k:])
	return list[:k]
}

// Reuse hands the storage of a result back to the instance: every non-nil
// one of res's X, Duals, Basis and Factors. The caller must be done reading
// each of them, and so must everyone it shared them with: a later solve on
// the instance overwrites them. X, Duals and Basis are kept under the
// instance's rules (at most bufferSlots of a kind and, once recompiled,
// capacity within twice the recently seen sizes) and dropped otherwise.
// Factors must be a capture no solve will adopt again: its hold on its LU
// base ends (the base returns to the instance's pool once no view holds
// it) and its eta storage waits for the next CaptureFactors.
//
//hot:path
func (inst *Instance) Reuse(res Result) {
	sp := &inst.spares
	if res.X != nil {
		sp.vecs[solutionVec] = keep(sp, sp.vecs[solutionVec], bufferSlots, res.X, cap(res.X))
	}
	if res.Duals != nil {
		sp.vecs[dualVec] = keep(sp, sp.vecs[dualVec], bufferSlots, res.Duals, cap(res.Duals))
	}
	if b := res.Basis; b != nil {
		sp.bases = keep(sp, sp.bases, bufferSlots, b, cap(b.Status))
	}
	if f := res.Factors; f != nil {
		inst.facWS.Release(f)
	}
}

// keep appends v of capacity c to the idle list when the list holds fewer
// than slots and c fits.
func keep[T any](sp *spares, list []T, slots int, v T, c int) []T {
	if len(list) < slots && sp.fits(c) {
		list = append(list, v) //lint:allow hotalloc -- grows once, to at most slots
	}
	return list
}

// pop removes and returns the last piece of *list, or the zero value when
// the list is empty.
func pop[T any](list *[]T) (v T) {
	l := *list
	if n := len(l); n > 0 {
		v = l[n-1]
		clear(l[n-1:])
		*list = l[:n-1]
	}
	return v
}

// vector returns a zeroed vector of the given kind and length n from the
// idle list, or fresh storage when the list is empty.
func (inst *Instance) vector(kind, n int) []float64 {
	return fit(pop(&inst.spares.vecs[kind]), n)
}

// basis returns a basis snapshot of m basic positions over N columns, from
// the idle list or fresh. Its contents are unspecified: the caller
// overwrites them.
func (inst *Instance) basis(m, N int) *Basis {
	b := pop(&inst.spares.bases)
	if b == nil {
		b = &Basis{} //lint:allow hotalloc -- until the instance keeps an idle basis
	}
	b.Basic, b.Status = fit(b.Basic, m), fit(b.Status, N)
	return b
}
