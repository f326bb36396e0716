package core

import (
	"tvnep/internal/depgraph"
	"tvnep/internal/model"
)

// BuildCSigma constructs the compact state model cΣ of Section IV:
// |R|+1 event points, starts bijective on e_1…e_|R|, ends many-to-one on
// e_2…e_|R|+1, explicit per-request state allocations on the |R| states,
// temporal dependency graph cuts (19)/(20) and the activity-interval
// presolve unless disabled.
func BuildCSigma(inst *Instance, opts BuildOptions) *Built {
	return RebuildCSigma(nil, inst, opts)
}

// RebuildCSigma is BuildCSigma into the storage of an earlier build, for a
// caller that builds one model after another: b's model is Reset and
// refilled, so its LP rows, bounds, objective, keys and integrality markers
// reuse their storage, and so do the builder's scratch expressions. The
// model equals the one BuildCSigma builds, row for row and bit for bit. The
// result is b itself, or a fresh Built when b is nil. Every handle, row and
// shared slice obtained from b before is invalid afterwards.
func RebuildCSigma(b *Built, inst *Instance, opts BuildOptions) *Built {
	if b == nil {
		b = &Built{Model: model.New(model.Maximize)}
	} else {
		b.Model.Reset(model.Maximize)
		*b = Built{Model: b.Model, row: b.row, sum: b.sum, part: b.part}
	}
	b.Kind, b.Inst, b.Opts = CSigma, inst, opts
	k := len(inst.Reqs)
	m := b.Model
	T := inst.Horizon
	numEvents := k + 1

	buildEmbedding(b)
	buildTimeVars(b, numEvents)

	dg := depgraph.Build(inst.Reqs)
	cutMode := opts.CutMode

	// Event windows: except in CutOff mode, χ variables exist only inside
	// the Constraint-(19) windows; otherwise over the full legal ranges.
	// The windows stay static even under lazy separation — they restrict
	// which variables are created, so there is no row to defer.
	var startWin, endWin []depgraph.Window
	if cutMode == CutOff {
		startWin, endWin = depgraph.FullWindows(k)
	} else {
		startWin = append([]depgraph.Window(nil), dg.StartWindow...)
		endWin = append([]depgraph.Window(nil), dg.EndWindow...)
	}

	// Event mapping variables (Table VII restricted to the cΣ ranges).
	b.ChiPlus = make([][]model.Var, k)
	b.ChiMinus = make([][]model.Var, k)
	for r := 0; r < k; r++ {
		b.ChiPlus[r] = make([]model.Var, numEvents+1)
		b.ChiMinus[r] = make([]model.Var, numEvents+2)
		for i := startWin[r].Lo; i <= startWin[r].Hi; i++ {
			b.ChiPlus[r][i] = m.Binary()
		}
		for i := endWin[r].Lo; i <= endWin[r].Hi; i++ {
			b.ChiMinus[r][i] = m.Binary()
		}
		// (10)/(19): each start on exactly one event in its window.
		row := b.row.Reset()
		addChiUpTo(row, 1, b.ChiPlus[r], numEvents)
		m.AddEQ(row, 1, model.Key1("start1", r))
		// (11)/(19): each end on exactly one event in its window.
		addChiUpTo(row.Reset(), 1, b.ChiMinus[r], numEvents+1)
		m.AddEQ(row, 1, model.Key1("end1", r))
		// End strictly after start: Σ_{j≤i} χ⁻ ≤ Σ_{j≤i−1} χ⁺.
		for i := 2; i <= k; i++ {
			addChiUpTo(row.Reset(), 1, b.ChiMinus[r], i)
			if row.Len() == 0 {
				continue
			}
			addChiUpTo(row, -1, b.ChiPlus[r], i-1)
			m.AddLE(row, 0, model.Key2("order", r, i))
		}
	}
	// (12): every event e_1…e_k hosts exactly one request start.
	for i := 1; i <= k; i++ {
		sum := b.row.Reset()
		for r := 0; r < k; r++ {
			if b.ChiPlus[r][i].Valid() {
				sum.Add(1, b.ChiPlus[r][i])
			}
		}
		m.AddEQ(sum, 1, model.Key1("event1", i))
	}

	// Constraint (20): pairwise precedence cuts from the dependency graph.
	// CutStatic emits every row up front (the formulation as written);
	// CutLazy registers a separator that appends only the rows fractional
	// relaxation points actually violate; CutOff drops the family.
	switch cutMode {
	case CutStatic:
		forEachPrecRow(b, dg, startWin, endWin, func(lhs *model.LinExpr, key model.Key) {
			m.AddLE(lhs, 0, key)
		})
	case CutLazy:
		b.registerPrecSeparator(dg, startWin, endWin)
	}

	// State allocations (Tables VIII/IX, compactified). State s_n spans
	// [e_n, e_{n+1}]; request r is active there iff its start is at an
	// event ≤ n and its end at an event ≥ n+1.
	activity := func(r, n int) depgraph.Activity {
		if opts.DisablePresolve {
			// Without presolve every request may be active in every state
			// permitted by its χ ranges; windows still bound it when cuts
			// are on, so derive from the active windows.
			if n < startWin[r].Lo || n > endWin[r].Hi-1 {
				return depgraph.Never
			}
			return depgraph.Maybe
		}
		return dg.ActivityAt(r, n)
	}

	if b.linkUse != nil {
		active := make([]int, k)
		for r := range active {
			for n := 1; n <= k; n++ {
				if activity(r, n) != depgraph.Never {
					active[r]++
				}
			}
		}
		b.sizeLinkUse(active)
	}

	// (r, state, resource) → a, kept only for the objective that reads it.
	var aVars map[[3]int]model.Var
	if opts.Objective == BalanceNodeLoad {
		aVars = make(map[[3]int]model.Var)
	}
	nRes := b.resourceCount()
	numNodes := inst.Sub.NumNodes()
	// FlowPath: priced path columns join link rows after the build, so
	// every request whose paths can carry demand keeps its state on every
	// link even when the compiled (seed-only) allocation is empty;
	// pendAlways defers the cap-row registration of its Always states, and
	// pendDeferred the cap-row index of its deferred Maybe states, until
	// the row index exists. A capacity row that nothing built loads is not
	// built either: it reads 0 ≤ c until a column loads it, so it joins
	// caps and opens with the first committed column over it.
	var pendAlways, pendDeferred []int
	for n := 1; n <= k; n++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			capacity := b.sum.Reset()
			any := false
			pendAlways, pendDeferred = pendAlways[:0], pendDeferred[:0]
			for r := 0; r < k; r++ {
				force := b.linkUse != nil && rsc >= numNodes && b.pathLinkDemand(r)
				switch activity(r, n) {
				case depgraph.Never:
					continue
				case depgraph.Always:
					// Presolve of Section IV-C: the request is provably
					// active; its allocation joins Constraint (9) directly
					// and needs no a variable.
					had := capacity.Len()
					b.addAlloc(capacity, 1, r, rsc)
					if capacity.Len() > had || force {
						any = true
						if force {
							pendAlways = append(pendAlways, r)
						}
					}
				case depgraph.Maybe:
					alloc := b.part.Reset()
					b.addAlloc(alloc, 1, r, rsc)
					if alloc.Len() == 0 {
						if !force {
							continue
						}
						// FlowPath, no seed column of r over this link:
						// while no column of r routes over it either, (7)
						// reads a ≥ −c·(1 − Σc) with Σc ≤ 1 (start1), which
						// a ≥ 0 implies, and a only loosens (9). Neither a
						// nor its row is built; the first priced column of
						// r over the link opens both (see
						// pathPricer.Commit).
						any = true
						b.deferred[r] = append(b.deferred[r], deferredRow{n: n, ls: rsc - numNodes})
						pendDeferred = append(pendDeferred, r)
						continue
					}
					a := m.Continuous(0, model.Inf())
					if aVars != nil {
						aVars[[3]int{r, n, rsc}] = a
					}
					capacity.Add(1, a)
					any = true
					// (7): a ≥ alloc − c·(1 − Σc(r, e_n)) with
					// Σc = Σ_{j≤n} χ⁺ − Σ_{j≤n} χ⁻, i.e.
					// a − alloc − c·Σχ⁺ + c·Σχ⁻ ≥ −c.
					con := b.row.Reset().Add(1, a)
					con.AddExpr(-1, alloc)
					b.addStateChi(con, r, n, capRsc)
					row := m.AddGE(con, -capRsc, model.Key3(FamState, r, n, rsc))
					if force {
						b.recordLinkUse(r, rsc-numNodes, row, -1)
					}
				}
			}
			if any {
				// (9): total state allocation within capacity.
				var row int
				if capacity.Len() > 0 {
					row = m.AddLE(capacity, capRsc, model.Key2(FamCap, n, rsc))
				} else {
					row = ^len(b.caps)
					b.caps = append(b.caps, deferredCap{n: n, ls: rsc - numNodes, row: -1})
				}
				for _, r := range pendAlways {
					b.recordLinkUse(r, rsc-numNodes, row, 1)
				}
				for _, r := range pendDeferred {
					b.deferred[r][len(b.deferred[r])-1].capRow = int32(row)
				}
			}
		}
	}

	// Temporal attachment (Table XIII), restricted to the active windows.
	row := &b.row
	for r := 0; r < k; r++ {
		for i := startWin[r].Lo; i <= startWin[r].Hi; i++ {
			// (14): t⁺ ≤ t_{e_i} + (1 − Σ_{j≤i} χ⁺)·T
			row.Reset().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			addChiUpTo(row, T, b.ChiPlus[r], i)
			m.AddLE(row, T, model.Key2("t14", r, i))
			// (15): t⁺ ≥ t_{e_i} − (1 − Σ_{j≥i} χ⁺)·T
			row.Reset().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			addChiFrom(row, -T, b.ChiPlus[r], i)
			m.AddGE(row, -T, model.Key2("t15", r, i))
		}
		for i := endWin[r].Lo; i <= endWin[r].Hi; i++ {
			// (16): t⁻ ≤ t_{e_i} + (1 − Σ_{2≤j≤i} χ⁻)·T
			row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			addChiUpTo(row, T, b.ChiMinus[r], i)
			m.AddLE(row, T, model.Key2("t16", r, i))
			// (17): t⁻ ≥ t_{e_{i−1}} − (1 − Σ_{j≥i} χ⁻)·T
			row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i-1])
			addChiFrom(row, -T, b.ChiMinus[r], i)
			m.AddGE(row, -T, model.Key2("t17", r, i))
		}
	}

	// Node-load accessor for the BalanceNodeLoad objective.
	b.numStates = k
	if aVars != nil {
		b.addStateNodeLoad = func(e *model.LinExpr, n, ns int) {
			for r := 0; r < k; r++ {
				switch activity(r, n) {
				case depgraph.Always:
					b.addAlloc(e, 1, r, ns)
				case depgraph.Maybe:
					if a, ok := aVars[[3]int{r, n, ns}]; ok {
						e.Add(1, a)
					}
				}
			}
		}
	}

	applyObjective(b)
	return b
}
