package core

import "tvnep/internal/model"

// buildEmbedding creates the time-invariant embedding machinery shared by
// all three formulations: the acceptance variables x_R (Table III), node
// mapping variables x_V (or a fixed mapping), link-flow variables x_E, and
// Constraints (1) and (2) of Table IV.
func buildEmbedding(b *Built) {
	if b.Opts.FlowMode == FlowPath {
		buildPathEmbedding(b)
		return
	}
	m := b.Model
	inst := b.Inst
	sub := inst.Sub
	k := b.numReq()

	b.XR = make([]model.Var, k)
	b.XE = make([][][]model.Var, k)
	if b.Opts.FixedMapping == nil {
		b.XV = make([][][]model.Var, k)
	}

	for r, req := range inst.Reqs {
		buildAcceptVar(b, r)

		if b.XV != nil {
			// Free node mapping: Constraint (1) — every virtual node sits
			// on exactly one substrate node iff the request is embedded.
			b.XV[r] = make([][]model.Var, req.G.N)
			for v := 0; v < req.G.N; v++ {
				b.XV[r][v] = make([]model.Var, sub.NumNodes())
				sum := b.row.Reset()
				for s := 0; s < sub.NumNodes(); s++ {
					b.XV[r][v][s] = m.Binary()
					sum.Add(1, b.XV[r][v][s])
				}
				sum.Add(-1, b.XR[r])
				m.AddEQ(sum, 0, model.Key2("map", r, v))
			}
		}

		// Link flow variables and Constraint (2): a splittable unit flow
		// from host(u) to host(v) for every virtual link (u,v), scaled by
		// the acceptance decision.
		b.XE[r] = make([][]model.Var, req.G.NumEdges())
		for lv := 0; lv < req.G.NumEdges(); lv++ {
			b.XE[r][lv] = make([]model.Var, sub.NumLinks())
			for ls := 0; ls < sub.NumLinks(); ls++ {
				b.XE[r][lv][ls] = m.Continuous(0, 1)
			}
			u, v := req.G.Edge(lv)
			for ns := 0; ns < sub.NumNodes(); ns++ {
				bal := b.row.Reset()
				for _, e := range sub.G.Out(ns) {
					bal.Add(1, b.XE[r][lv][e])
				}
				for _, e := range sub.G.In(ns) {
					bal.Add(-1, b.XE[r][lv][e])
				}
				if b.XV != nil {
					bal.Add(-1, b.XV[r][u][ns])
					bal.Add(1, b.XV[r][v][ns])
					m.AddEQ(bal, 0, model.Key3("flow", r, lv, ns))
				} else {
					hostU, hostV := b.Opts.FixedMapping[r][u], b.Opts.FixedMapping[r][v]
					coef := 0.0
					if ns == hostU {
						coef += 1
					}
					if ns == hostV {
						coef -= 1
					}
					bal.Add(-coef, b.XR[r])
					m.AddEQ(bal, 0, model.Key3("flow", r, lv, ns))
				}
			}
		}
	}
}

// addNodeAlloc appends coef·alloc_V(R, N_s), the macro of Table V, to e.
func (b *Built) addNodeAlloc(e *model.LinExpr, coef float64, r, ns int) {
	req := b.Inst.Reqs[r]
	if b.XV != nil {
		for v := 0; v < req.G.N; v++ {
			e.Add(coef*req.NodeDemand[v], b.XV[r][v][ns])
		}
		return
	}
	total := 0.0
	for v, host := range b.Opts.FixedMapping[r] {
		if host == ns {
			total += req.NodeDemand[v]
		}
	}
	if total != 0 {
		e.Add(coef*total, b.XR[r])
	}
}

// addLinkAlloc appends coef·alloc_E(R, L_s), the macro of Table V, to e. In
// FlowPath mode only the seeded path columns appear in the compiled row;
// priced columns join the same rows later through the linkUse registry.
func (b *Built) addLinkAlloc(e *model.LinExpr, coef float64, r, ls int) {
	if b.XE == nil {
		b.addSeedLinkAlloc(e, coef, r, ls)
		return
	}
	req := b.Inst.Reqs[r]
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		if d := req.LinkDemand[lv]; d != 0 {
			e.Add(coef*d, b.XE[r][lv][ls])
		}
	}
}

// resourceCount returns |V_S| + |E_S|; resources are indexed nodes first,
// then links.
func (b *Built) resourceCount() int { return b.Inst.Sub.NumNodes() + b.Inst.Sub.NumLinks() }

// resourceCap returns c_S of resource index rsc.
func (b *Built) resourceCap(rsc int) float64 {
	sub := b.Inst.Sub
	if rsc < sub.NumNodes() {
		return sub.NodeCap[rsc]
	}
	return sub.LinkCap[rsc-sub.NumNodes()]
}

// addAlloc appends coef·alloc_V or coef·alloc_E for a unified resource
// index to e.
func (b *Built) addAlloc(e *model.LinExpr, coef float64, r, rsc int) {
	sub := b.Inst.Sub
	if rsc < sub.NumNodes() {
		b.addNodeAlloc(e, coef, r, rsc)
		return
	}
	b.addLinkAlloc(e, coef, r, rsc-sub.NumNodes())
}

// buildTimeVars creates t_{e_i} (1-based, numEvents of them), t⁺_R, t⁻_R
// with their domain bounds, and the monotonicity constraint (13).
func buildTimeVars(b *Built, numEvents int) {
	m := b.Model
	T := b.Inst.Horizon
	b.TEvent = make([]model.Var, numEvents+1) // index 0 unused
	for i := 1; i <= numEvents; i++ {
		b.TEvent[i] = m.Continuous(0, T)
	}
	for i := 1; i < numEvents; i++ {
		// (13): t_{e_i} ≤ t_{e_{i+1}}
		m.AddLE(b.row.Reset().Add(1, b.TEvent[i]).Add(-1, b.TEvent[i+1]), 0, model.Key1("mono", i))
	}
	k := b.numReq()
	b.TPlus = make([]model.Var, k)
	b.TMinus = make([]model.Var, k)
	for r, req := range b.Inst.Reqs {
		// max() guards against negative-epsilon flexibilities from float
		// rounding in t^s + d + flex.
		b.TPlus[r] = m.Continuous(req.Earliest, max(req.Earliest, req.LatestStart()))
		b.TMinus[r] = m.Continuous(req.EarliestEnd(), max(req.EarliestEnd(), req.Latest))
		// (18): t⁻ − t⁺ = d
		m.AddEQ(b.row.Reset().Add(1, b.TMinus[r]).Add(-1, b.TPlus[r]), req.Duration, model.Key1("dur", r))
	}
}

// addChiUpTo appends coef·Σ_{j≤i} χ[j] over the variables that exist to e.
func addChiUpTo(e *model.LinExpr, coef float64, chi []model.Var, i int) {
	for j := 1; j <= i && j < len(chi); j++ {
		if chi[j].Valid() {
			e.Add(coef, chi[j])
		}
	}
}

// addStateChi appends the event terms of request r's state-n row (7),
// −c·Σ_{j≤n} χ⁺ + c·Σ_{j≤n} χ⁻, to e.
func (b *Built) addStateChi(e *model.LinExpr, r, n int, c float64) {
	addChiUpTo(e, -c, b.ChiPlus[r], n)
	addChiUpTo(e, c, b.ChiMinus[r], n)
}

// addChiFrom appends coef·Σ_{j≥i} χ[j] over the variables that exist to e.
func addChiFrom(e *model.LinExpr, coef float64, chi []model.Var, i int) {
	for j := max(i, 1); j < len(chi); j++ {
		if chi[j].Valid() {
			e.Add(coef, chi[j])
		}
	}
}
