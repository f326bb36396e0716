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
		m.AddEQ(chiSumUpTo(b.ChiPlus[r], numEvents), 1, model.Key1("start1", r))
		m.AddEQ(chiSumUpTo(b.ChiMinus[r], numEvents), 1, model.Key1("end1", r))
		// End strictly after start: Σ_{j≤i} χ⁻ ≤ Σ_{j≤i−1} χ⁺.
		for i := 1; i <= numEvents; i++ {
			lhs := chiSumUpTo(b.ChiMinus[r], i)
			lhs.AddExpr(-1, chiSumUpTo(b.ChiPlus[r], i-1))
			m.AddLE(lhs, 0, model.Key2("order", r, i))
		}
	}
	// Each event hosts exactly one start or end (Table VII).
	for i := 1; i <= numEvents; i++ {
		sum := model.Expr()
		for r := 0; r < k; r++ {
			sum.Add(1, b.ChiPlus[r][i]).Add(1, b.ChiMinus[r][i])
		}
		m.AddEQ(sum, 1, model.Key1("event1", i))
	}

	// Temporal attachment: starts and ends pinned to their event's time.
	for r := 0; r < k; r++ {
		for i := 1; i <= numEvents; i++ {
			// (14)/(15) for starts.
			e14 := model.Expr().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			e14.AddExpr(T, chiSumUpTo(b.ChiPlus[r], i))
			m.AddLE(e14, T, model.Key2("t14", r, i))
			e15 := model.Expr().Add(1, b.TPlus[r]).Add(-1, b.TEvent[i])
			e15.AddExpr(-T, chiSumFrom(b.ChiPlus[r], i))
			m.AddGE(e15, -T, model.Key2("t15", r, i))
			// Exact analogues for ends (the Δ/Σ event model releases
			// resources exactly at the end's event point).
			e16 := model.Expr().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			e16.AddExpr(T, chiSumUpTo(b.ChiMinus[r], i))
			m.AddLE(e16, T, model.Key2("t16", r, i))
			e17 := model.Expr().Add(1, b.TMinus[r]).Add(-1, b.TEvent[i])
			e17.AddExpr(-T, chiSumFrom(b.ChiMinus[r], i))
			m.AddGE(e17, -T, model.Key2("t17", r, i))
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
	aVars := make(map[[3]int]model.Var)
	for n := 1; n <= numStates; n++ {
		for rsc := 0; rsc < nRes; rsc++ {
			capRsc := b.resourceCap(rsc)
			capacity := model.Expr()
			any := false
			for r := 0; r < k; r++ {
				alloc := b.allocExpr(r, rsc)
				if alloc.Len() == 0 {
					continue
				}
				a := m.Continuous(0, model.Inf())
				aVars[[3]int{r, n, rsc}] = a
				// (7): a ≥ alloc − c·(1 − Σ(R, e_n)).
				con := model.Expr().Add(1, a)
				con.AddExpr(-1, alloc)
				con.AddExpr(-capRsc, chiSumUpTo(b.ChiPlus[r], n))
				con.AddExpr(capRsc, chiSumUpTo(b.ChiMinus[r], n))
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
	b.stateNodeLoad = func(n, ns int) *model.LinExpr {
		load := model.Expr()
		for r := 0; r < k; r++ {
			if a, ok := aVars[[3]int{r, n, ns}]; ok {
				load.Add(1, a)
			}
		}
		return load
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
			con := model.Expr().Add(1, accums[i][rsc]).Add(-1, deltas[i][rsc])
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
				alloc := b.allocExpr(r, rsc)
				// (3): Δ ≤ alloc + c·(1 − χ⁺)
				c3 := model.Expr().Add(1, d).AddExpr(-1, alloc).Add(capRsc, b.ChiPlus[r][i])
				m.AddLE(c3, capRsc, model.Key3("d3", i, rsc, r))
				// (4): Δ ≥ alloc − 2c·(1 − χ⁺)
				c4 := model.Expr().Add(1, d).AddExpr(-1, alloc).Add(-2*capRsc, b.ChiPlus[r][i])
				m.AddGE(c4, -2*capRsc, model.Key3("d4", i, rsc, r))
				// (5): Δ ≤ −alloc + 2c·(1 − χ⁻)
				c5 := model.Expr().Add(1, d).AddExpr(1, alloc).Add(2*capRsc, b.ChiMinus[r][i])
				m.AddLE(c5, 2*capRsc, model.Key3("d5", i, rsc, r))
				// (6): Δ ≥ −alloc − c·(1 − χ⁻)
				c6 := model.Expr().Add(1, d).AddExpr(1, alloc).Add(-capRsc, b.ChiMinus[r][i])
				m.AddGE(c6, -capRsc, model.Key3("d6", i, rsc, r))
			}
		}
	}

	b.numStates = numStates
	b.stateNodeLoad = func(n, ns int) *model.LinExpr {
		return model.Expr().Add(1, accums[n][ns])
	}

	applyObjective(b)
	return b
}
