package core

import (
	"fmt"

	"tvnep/internal/model"
	"tvnep/internal/numtol"
)

// applyObjective installs the objective of Section IV-E selected in the
// build options. Every model in this package maximizes.
func applyObjective(b *Built) {
	switch b.Opts.Objective {
	case AccessControl:
		applyAccessControl(b)
	case MaxEarliness:
		applyMaxEarliness(b)
	case BalanceNodeLoad:
		applyBalanceNodeLoad(b)
	case DisableLinks:
		applyDisableLinks(b)
	case MinMakespan:
		applyMinMakespan(b)
	default:
		panic(fmt.Sprintf("core: unknown objective %d", int(b.Opts.Objective)))
	}
}

// applyAccessControl maximizes provider revenue:
// Σ_R x_R · d_R · Σ_{N_v} c_R(N_v)   (Section IV-E-1).
func applyAccessControl(b *Built) {
	obj := b.sum.Reset()
	for r, req := range b.Inst.Reqs {
		obj.Add(req.Duration*req.TotalNodeDemand(), b.XR[r])
	}
	b.Model.SetObjective(obj)
}

// applyMaxEarliness maximizes Σ_R d_R·(1 − (t⁺_R − t^s_R)/(t^e_R − d_R −
// t^s_R)) over a fixed request set (Section IV-E-2). Requests without
// flexibility contribute the constant fee d_R.
func applyMaxEarliness(b *Built) {
	obj := b.sum.Reset()
	for r, req := range b.Inst.Reqs {
		flex := req.Flexibility()
		if flex <= numtol.EventCoincide {
			obj.AddConst(req.Duration)
			continue
		}
		// d·(1 − (t⁺ − t^s)/flex) = d + d·t^s/flex − (d/flex)·t⁺
		obj.AddConst(req.Duration + req.Duration*req.Earliest/flex)
		obj.Add(-req.Duration/flex, b.TPlus[r])
	}
	b.Model.SetObjective(obj)
}

// applyBalanceNodeLoad maximizes the number of substrate nodes whose load
// never exceeds fraction f of their capacity (Section IV-E-3): binary
// F(N_s) with, for every state s_i,
// Σ_R a_R(s_i, N_s) ≤ f·c + (1−f)·c·(1 − F(N_s)).
func applyBalanceNodeLoad(b *Built) {
	if b.addStateNodeLoad == nil {
		panic("core: formulation did not install a state node-load accessor")
	}
	m := b.Model
	f := b.Opts.loadFraction()
	obj := b.sum.Reset()
	for ns := 0; ns < b.Inst.Sub.NumNodes(); ns++ {
		F := m.Binary()
		obj.Add(1, F)
		c := b.Inst.Sub.NodeCap[ns]
		for n := 1; n <= b.numStates; n++ {
			con := b.row.Reset()
			b.addStateNodeLoad(con, n, ns)
			if con.Len() == 0 {
				continue
			}
			// load + (1−f)·c·F ≤ c
			con.Add((1-f)*c, F)
			m.AddLE(con, c, model.Key2("bal", ns, n))
		}
	}
	m.SetObjective(obj)
}

// applyMinMakespan minimizes the completion time of the last request over a
// fixed set: a fresh variable M ≥ t⁻_R for all R, objective max −M (the
// models maximize throughout).
func applyMinMakespan(b *Built) {
	m := b.Model
	M := m.Continuous(0, b.Inst.Horizon)
	for r := range b.Inst.Reqs {
		m.AddGE(b.row.Reset().Add(1, M).Add(-1, b.TMinus[r]), 0,
			model.Key1("mk", r))
	}
	m.SetObjective(b.sum.Reset().Add(-1, M))
}

// applyDisableLinks maximizes the number of substrate links carrying no
// flow over the whole horizon (Section IV-E-4): binary D(L_s) with
// Σ_{R, L_v} x_E(L_v, L_s) ≤ M·(1 − D(L_s)).
func applyDisableLinks(b *Built) {
	m := b.Model
	obj := b.sum.Reset()
	// M = total number of virtual links (each x_E ≤ 1).
	M := 0.0
	for _, req := range b.Inst.Reqs {
		M += float64(req.G.NumEdges())
	}
	if M == 0 {
		M = 1
	}
	for ls := 0; ls < b.Inst.Sub.NumLinks(); ls++ {
		D := m.Binary()
		obj.Add(1, D)
		con := b.row.Reset().Add(M, D)
		if b.XE != nil {
			for r, req := range b.Inst.Reqs {
				for lv := 0; lv < req.G.NumEdges(); lv++ {
					con.Add(1, b.XE[r][lv][ls])
				}
			}
			m.AddLE(con, M, model.Key1(FamDis, ls))
			continue
		}
		// FlowPath: the activity on ls is the total path-variable value over
		// the paths crossing it — seeds in the compiled row, priced columns
		// via the unit-flow link-use registry (flow counts, not allocation,
		// so the coefficient is 1 regardless of demand).
		for r, req := range b.Inst.Reqs {
			for lv := 0; lv < req.G.NumEdges(); lv++ {
				for kp, p := range b.SeedPaths[r][lv] {
					for _, pls := range p {
						if pls == ls {
							con.Add(1, b.Lambda[r][lv][kp])
						}
					}
				}
			}
		}
		row := m.AddLE(con, M, model.Key1(FamDis, ls))
		b.recordLinkUseUnit(ls, row)
	}
	m.SetObjective(obj)
}
