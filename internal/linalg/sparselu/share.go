package sparselu

// Sharing factorizations.
//
// A view (FactorizeInto, ShareInto, ExtendInto) holds an LU base by
// reference and owns its eta arena. A capture (CaptureInto) holds the base
// too, and a copy of the view's eta file in storage of its own, without
// occurrence chains or solve scratch. A view that adopts a capture copies
// that eta file into its own arena and appends its pivots there, so views
// and captures sharing a base never see one another's etas. Only eta
// entries are copied: the base, most of a factorization's bytes, is not.

// ShareInto makes dst a view of f's factorization that can be solved and
// updated: dst holds f's LU base by reference and a copy of f's eta file in
// its own arena, with the occurrence chains and solve scratch rebuilt, so
// solves on dst read exactly the numbers a deep copy of f would hold, and
// the pivots either side takes afterwards never reach the other. dst's
// previous base returns to ws's pool once nothing holds it.
func (f *Factors) ShareInto(dst *Factors, ws *Workspace) {
	f.copyEtasInto(dst, ws)
	m := f.m
	dst.etaHead = growI32(dst.etaHead, m)
	for p := range dst.etaHead {
		dst.etaHead[p] = -1
	}
	// One chain node per eta entry and pivot, appended in Update's order.
	dst.occ = arenaRoom(dst.occ[:0], dst.etaNNZ, m)
	for i := range dst.etas {
		e := &dst.etas[i]
		for _, p := range dst.etaIdx[e.off : e.off+e.n] {
			dst.chainEta(p, int32(i))
		}
		dst.chainEta(e.r, int32(i))
	}
	dst.resetSolveState()
}

// CaptureInto makes dst, an empty Factors or a capture, a capture of f: a
// hold on f's LU base and a copy of f's eta file, without occurrence chains
// or solve scratch. A capture is not solved itself; a view adopts it with
// ShareInto or extends it with ExtendInto. dst's previous base returns to
// ws's pool once nothing holds it.
func (f *Factors) CaptureInto(dst *Factors, ws *Workspace) {
	f.copyEtasInto(dst, ws)
	dst.capture = true
}

// copyEtasInto makes dst hold f's base and a copy of f's eta file.
func (f *Factors) copyEtasInto(dst *Factors, ws *Workspace) {
	dst.hold(f.lu, ws)
	dst.etas = copyOf(dst.etas, f.etas)
	dst.etaIdx = copyOf(dst.etaIdx, f.etaIdx)
	dst.etaVal = copyOf(dst.etaVal, f.etaVal)
	dst.etaNNZ = f.etaNNZ
}

// Capture returns a capture of f (see CaptureInto) in dst, or, when dst is
// nil, in a capture released to ws, or in fresh storage.
func (ws *Workspace) Capture(f, dst *Factors) *Factors {
	if dst == nil {
		if n := len(ws.idle); n > 0 {
			dst = ws.idle[n-1]
			ws.idle[n-1] = nil
			ws.idle = ws.idle[:n-1]
		} else {
			dst = &Factors{}
		}
	}
	f.CaptureInto(dst, ws)
	return dst
}

// Release ends c's life as a capture: its base returns to ws's pool once
// nothing holds it, and c, with its eta storage, idles in ws for a later
// Capture. The caller and everyone it shared c with must be done with it.
//
//hot:path
func (ws *Workspace) Release(c *Factors) {
	if c.lu == nil || !c.capture {
		panic("sparselu: Release of a Factors that is not a capture")
	}
	if c.lu.refs--; c.lu.refs == 0 {
		ws.bases = append(ws.bases, c.lu) //lint:allow hotalloc -- grows once, to the peak of bases nothing holds
	}
	c.lu = nil
	ws.idle = append(ws.idle, c) //lint:allow hotalloc -- grows once, to the peak of released captures
}

// Idle reports what ws's pool keeps: how many LU bases nothing holds and
// how many released captures, the largest basis dimension a pooled base
// holds without growing, and the most eta entries an idle capture does.
func (ws *Workspace) Idle() (bases, captures, maxM, maxEta int) {
	for _, b := range ws.bases {
		maxM = max(maxM, cap(b.order))
	}
	for _, c := range ws.idle {
		maxEta = max(maxEta, cap(c.etaIdx))
	}
	return len(ws.bases), len(ws.idle), maxM, maxEta
}

// Prune drops from ws's pool every base of a dimension above maxM and
// every idle capture holding room for more than maxEta eta entries, and
// then keeps at most slots bases and slots idle captures.
func (ws *Workspace) Prune(maxM, maxEta, slots int) {
	ws.bases = prune(ws.bases, slots, func(b *lu) bool { return cap(b.order) <= maxM })
	ws.idle = prune(ws.idle, slots, func(c *Factors) bool { return cap(c.etaIdx) <= maxEta })
}

// prune keeps, in place, the first slots pieces of list that fit.
func prune[T any](list []T, slots int, fits func(T) bool) []T {
	k := 0
	for _, v := range list {
		if k < slots && fits(v) {
			list[k] = v
			k++
		}
	}
	clear(list[k:])
	return list[:k]
}
