package core

import "tvnep/internal/model"

// buildBijectiveEvents creates the event machinery shared by the Δ- and
// Σ-Models (Section III-A): 2·|R| abstract event points, a bijective
// mapping of request starts AND ends onto them, the start-before-end
// ordering, and the temporal attachment in which both starts and ends are
// pinned exactly to their event's time value.
func buildBijectiveEvents(b *Built) {
	m := b.Model
	k := b.numReq()
	numEvents := 2 * k
	T := b.Inst.Horizon

	buildTimeVars(b, numEvents)

	b.ChiPlus = make([][]model.Var, k)
	b.ChiMinus = make([][]model.Var, k)
	for r := 0; r < k; r++ {
		b.ChiPlus[r] = make([]model.Var, numEvents+1)
		b.ChiMinus[r] = make([]model.Var, numEvents+1)
		for i := 1; i <= numEvents; i++ {
			b.ChiPlus[r][i] = m.Binary()
			b.ChiMinus[r][i] = m.Binary()
		}
		row := b.row.Reset()
		addChiUpTo(row, 1, b.ChiPlus[r], numEvents)
		m.AddEQ(row, 1, model.Key1("start1", r))
		addChiUpTo(row.Reset(), 1, b.ChiMinus[r], numEvents)
		m.AddEQ(row, 1, model.Key1("end1", r))
		// End strictly after start: Σ_{j≤i} χ⁻ ≤ Σ_{j≤i−1} χ⁺.
		for i := 1; i <= numEvents; i++ {
			addChiUpTo(row.Reset(), 1, b.ChiMinus[r], i)
			addChiUpTo(row, -1, b.ChiPlus[r], i-1)
			m.AddLE(row, 0, model.Key2("order", r, i))
		}
	}
	// Each event hosts exactly one start or end (Table VII).
	for i := 1; i <= numEvents; i++ {
		sum := b.row.Reset()
		for r := 0; r < k; r++ {
			sum.Add(1, b.ChiPlus[r][i]).Add(1, b.ChiMinus[r][i])
		}
		m.AddEQ(sum, 1, model.Key1("event1", i))
	}

	// Temporal attachment: starts and ends pinned to their event's time.
	row := &b.row
	for r := 0; r < k; r++ {
		for i := 1; i <= numEvents; i++ {
			// (14)/(15) for starts.
			row.Reset().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			addChiUpTo(row, T, b.ChiPlus[r], i)
			m.AddLE(row, T, model.Key2("t14", r, i))
			row.Reset().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			addChiFrom(row, -T, b.ChiPlus[r], i)
			m.AddGE(row, -T, model.Key2("t15", r, i))
			// Exact analogues for ends (the Δ/Σ event model releases
			// resources exactly at the end's event point).
			row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			addChiUpTo(row, T, b.ChiMinus[r], i)
			m.AddLE(row, T, model.Key2("t16", r, i))
			row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			addChiFrom(row, -T, b.ChiMinus[r], i)
			m.AddGE(row, -T, model.Key2("t17", r, i))
		}
	}
}

// BuildSigma constructs the explicit-state Σ-Model of Section III-C:
// 2·|R| event points with a bijective start/end mapping and per-request
// state allocation variables a_R(s_i, r) on the 2·|R|−1 states.
func BuildSigma(inst *Instance, opts BuildOptions) *Built {
	k := len(inst.Reqs)
	b := &Built{
		Model: model.New(model.Maximize),
		Kind:  Sigma,
		Inst:  inst,
		Opts:  opts,
	}
	m := b.Model

	buildEmbedding(b)
	buildBijectiveEvents(b)

	numStates := 2*k - 1
	if k == 0 {
		numStates = 0
	}
	nRes := b.resourceCount()
	// (r, state, resource) → a, kept only for the objective that reads it.
	var aVars map[[3]int]model.Var
	if opts.Objective == BalanceNodeLoad {
		aVars = make(map[[3]int]model.Var)
	}
	for n := 1; n <= numStates; n++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			capacity := b.sum.Reset()
			any := false
			for r := 0; r < k; r++ {
				alloc := b.part.Reset()
				b.addAlloc(alloc, 1, r, rsc)
				if alloc.Len() == 0 {
					continue
				}
				a := m.Continuous(0, model.Inf())
				if aVars != nil {
					aVars[[3]int{r, n, rsc}] = a
				}
				// (7): a ≥ alloc − c·(1 − Σ(R, e_n)).
				con := b.row.Reset().Add(1, a)
				con.AddExpr(-1, alloc)
				addChiUpTo(con, -capRsc, b.ChiPlus[r], n)
				addChiUpTo(con, capRsc, b.ChiMinus[r], n)
				m.AddGE(con, -capRsc, model.Key3(FamState, r, n, rsc))
				capacity.Add(1, a)
				any = true
			}
			if any {
				m.AddLE(capacity, capRsc, model.Key2(FamCap, n, rsc))
			}
		}
	}

	b.numStates = numStates
	if aVars != nil {
		b.addStateNodeLoad = func(e *model.LinExpr, n, ns int) {
			for r := 0; r < k; r++ {
				if a, ok := aVars[[3]int{r, n, ns}]; ok {
					e.Add(1, a)
				}
			}
		}
	}

	applyObjective(b)
	return b
}

// BuildDelta constructs the state-change Δ-Model of Section III-B: the same
// 2·|R| bijective event structure as the Σ-Model, but the substrate state
// is tracked only through per-event change variables Δ_{e_i}(r) pinned by
// the big-M conditional constraints (3)–(6), accumulated into per-state
// totals.
func BuildDelta(inst *Instance, opts BuildOptions) *Built {
	k := len(inst.Reqs)
	b := &Built{
		Model: model.New(model.Maximize),
		Kind:  Delta,
		Inst:  inst,
		Opts:  opts,
	}
	m := b.Model

	buildEmbedding(b)
	buildBijectiveEvents(b)

	numStates := 2*k - 1
	if k == 0 {
		numStates = 0
	}
	nRes := b.resourceCount()
	// Δ_{e_i}(rsc): free state-change variables, one per event that opens a
	// state; A[n][rsc]: accumulated allocation per state, bounded by the
	// capacity (Constraint 9 in cumulative form).
	deltas := make([][]model.Var, numStates+1)
	accums := make([][]model.Var, numStates+1)
	negInf := -model.Inf()
	for i := 1; i <= numStates; i++ {
		deltas[i] = make([]model.Var, nRes)
		accums[i] = make([]model.Var, nRes)
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			deltas[i][rsc] = m.Continuous(negInf, model.Inf())
			accums[i][rsc] = m.Continuous(0, capRsc)
			// A_n = A_{n−1} + Δ_{e_n}
			con := b.row.Reset().Add(1, accums[i][rsc]).Add(-1, deltas[i][rsc])
			if i > 1 {
				con.Add(-1, accums[i-1][rsc])
			}
			m.AddEQ(con, 0, model.Key2("accum", i, rsc))
		}
	}

	// Conditional constraints (3)–(6) pinning Δ to ±alloc of the request
	// whose checkpoint is mapped on the event.
	for i := 1; i <= numStates; i++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			d := deltas[i][rsc]
			for r := 0; r < k; r++ {
				// Note: the constraints are added even when alloc is the
				// empty expression — they are exactly what pins Δ to zero
				// when the event carries a checkpoint of a request that
				// does not use this resource.
				row := &b.row
				// (3): Δ ≤ alloc + c·(1 − χ⁺)
				row.Reset().Add(1, d)
				b.addAlloc(row, -1, r, rsc)
				m.AddLE(row.Add(capRsc, b.ChiPlus[r][i]), capRsc, model.Key3("d3", i, rsc, r))
				// (4): Δ ≥ alloc − 2c·(1 − χ⁺)
				row.Reset().Add(1, d)
				b.addAlloc(row, -1, r, rsc)
				m.AddGE(row.Add(-2*capRsc, b.ChiPlus[r][i]), -2*capRsc, model.Key3("d4", i, rsc, r))
				// (5): Δ ≤ −alloc + 2c·(1 − χ⁻)
				row.Reset().Add(1, d)
				b.addAlloc(row, 1, r, rsc)
				m.AddLE(row.Add(2*capRsc, b.ChiMinus[r][i]), 2*capRsc, model.Key3("d5", i, rsc, r))
				// (6): Δ ≥ −alloc − c·(1 − χ⁻)
				row.Reset().Add(1, d)
				b.addAlloc(row, 1, r, rsc)
				m.AddGE(row.Add(-capRsc, b.ChiMinus[r][i]), -capRsc, model.Key3("d6", i, rsc, r))
			}
		}
	}

	b.numStates = numStates
	b.addStateNodeLoad = func(e *model.LinExpr, n, ns int) {
		e.Add(1, accums[n][ns])
	}

	applyObjective(b)
	return b
}
