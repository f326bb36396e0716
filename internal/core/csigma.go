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
	k := len(inst.Reqs)
	b := &Built{
		Model: model.New(model.Maximize),
		Kind:  CSigma,
		Inst:  inst,
		Opts:  opts,
	}
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
		m.AddEQ(chiSumUpTo(b.ChiPlus[r], numEvents), 1, model.Key1("start1", r))
		// (11)/(19): each end on exactly one event in its window.
		m.AddEQ(chiSumUpTo(b.ChiMinus[r], numEvents+1), 1, model.Key1("end1", r))
		// End strictly after start: Σ_{j≤i} χ⁻ ≤ Σ_{j≤i−1} χ⁺.
		for i := 2; i <= k; i++ {
			lhs := chiSumUpTo(b.ChiMinus[r], i)
			if lhs.Len() == 0 {
				continue
			}
			lhs.AddExpr(-1, chiSumUpTo(b.ChiPlus[r], i-1))
			m.AddLE(lhs, 0, model.Key2("order", r, i))
		}
	}
	// (12): every event e_1…e_k hosts exactly one request start.
	for i := 1; i <= k; i++ {
		sum := model.Expr()
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

	aVars := make(map[[3]int]model.Var) // (r, state, resource) → a
	nRes := b.resourceCount()
	numNodes := inst.Sub.NumNodes()
	for n := 1; n <= k; n++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			capacity := model.Expr()
			any := false
			// FlowPath: priced path columns join link rows after the build,
			// so link-resource rows must exist for every request whose paths
			// can carry demand even when the compiled (seed-only) allocation
			// is empty; pendAlways defers their cap-row registration until
			// the row index exists.
			var pendAlways []int
			for r := 0; r < k; r++ {
				force := b.linkUse != nil && rsc >= numNodes && b.pathLinkDemand(r)
				switch activity(r, n) {
				case depgraph.Never:
					continue
				case depgraph.Always:
					// Presolve of Section IV-C: the request is provably
					// active; its allocation joins Constraint (9) directly
					// and needs no a variable.
					alloc := b.allocExpr(r, rsc)
					if alloc.Len() > 0 || force {
						capacity.AddExpr(1, alloc)
						any = true
						if force {
							pendAlways = append(pendAlways, r)
						}
					}
				case depgraph.Maybe:
					alloc := b.allocExpr(r, rsc)
					if alloc.Len() == 0 && !force {
						continue
					}
					a := m.Continuous(0, model.Inf())
					aVars[[3]int{r, n, rsc}] = a
					// (7): a ≥ alloc − c·(1 − Σc(r, e_n)) with
					// Σc = Σ_{j≤n} χ⁺ − Σ_{j≤n} χ⁻, i.e.
					// a − alloc − c·Σχ⁺ + c·Σχ⁻ ≥ −c.
					con := model.Expr().Add(1, a)
					con.AddExpr(-1, alloc)
					con.AddExpr(-capRsc, chiSumUpTo(b.ChiPlus[r], n))
					con.AddExpr(capRsc, chiSumUpTo(b.ChiMinus[r], n))
					row := m.AddGE(con, -capRsc, model.Key3(FamState, r, n, rsc))
					if force {
						b.recordLinkUse(r, rsc-numNodes, row, -1)
					}
					capacity.Add(1, a)
					any = true
				}
			}
			if any {
				// (9): total state allocation within capacity.
				row := m.AddLE(capacity, capRsc, model.Key2(FamCap, n, rsc))
				for _, r := range pendAlways {
					b.recordLinkUse(r, rsc-numNodes, row, 1)
				}
			}
		}
	}

	// Temporal attachment (Table XIII), restricted to the active windows.
	for r := 0; r < k; r++ {
		for i := startWin[r].Lo; i <= startWin[r].Hi; i++ {
			// (14): t⁺ ≤ t_{e_i} + (1 − Σ_{j≤i} χ⁺)·T
			e14 := model.Expr().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			e14.AddExpr(T, chiSumUpTo(b.ChiPlus[r], i))
			m.AddLE(e14, T, model.Key2("t14", r, i))
			// (15): t⁺ ≥ t_{e_i} − (1 − Σ_{j≥i} χ⁺)·T
			e15 := model.Expr().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			e15.AddExpr(-T, chiSumFrom(b.ChiPlus[r], i))
			m.AddGE(e15, -T, model.Key2("t15", r, i))
		}
		for i := endWin[r].Lo; i <= endWin[r].Hi; i++ {
			// (16): t⁻ ≤ t_{e_i} + (1 − Σ_{2≤j≤i} χ⁻)·T
			e16 := model.Expr().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			e16.AddExpr(T, chiSumUpTo(b.ChiMinus[r], i))
			m.AddLE(e16, T, model.Key2("t16", r, i))
			// (17): t⁻ ≥ t_{e_{i−1}} − (1 − Σ_{j≥i} χ⁻)·T
			e17 := model.Expr().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i-1])
			e17.AddExpr(-T, chiSumFrom(b.ChiMinus[r], i))
			m.AddGE(e17, -T, model.Key2("t17", r, i))
		}
	}

	// Node-load accessor for the BalanceNodeLoad objective.
	b.numStates = k
	b.stateNodeLoad = func(n, ns int) *model.LinExpr {
		load := model.Expr()
		for r := 0; r < k; r++ {
			switch activity(r, n) {
			case depgraph.Always:
				load.AddExpr(1, b.allocExpr(r, ns))
			case depgraph.Maybe:
				if a, ok := aVars[[3]int{r, n, ns}]; ok {
					load.Add(1, a)
				}
			}
		}
		return load
	}

	applyObjective(b)
	if opts.FlowMode == FlowPath {
		finishPathFlows(b)
	}
	return b
}
