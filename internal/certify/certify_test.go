package certify_test

import (
	"context"
	"testing"

	"tvnep/internal/admit"
	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// solveOpts bounds every search by a node count, not a wall clock, so the
// outcome does not depend on the host's speed or the race detector: Δ, the
// largest search here, needs fewer than a hundred nodes.
func solveOpts() *model.SolveOptions {
	return &model.SolveOptions{NodeLimit: 5000}
}

func smallScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	cfg := workload.Default()
	cfg.NumRequests = 4
	cfg.FlexibilityHr = 2
	return workload.Generate(cfg, 7)
}

// TestKnownGoodFormulations certifies solver outputs of all three exact
// model families on the same scenario (kept tiny: the Δ formulation's
// event grid grows much faster than cΣ's).
func TestKnownGoodFormulations(t *testing.T) {
	cfg := workload.Default()
	cfg.NumRequests = 3
	cfg.FlexibilityHr = 1
	sc := workload.Generate(cfg, 7)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	for _, form := range []core.Formulation{core.CSigma, core.Delta, core.Sigma} {
		b := core.Build(form, inst, core.BuildOptions{
			Objective:    core.AccessControl,
			FixedMapping: sc.Mapping,
		})
		sol, ms := b.Solve(context.Background(), solveOpts())
		if sol == nil {
			t.Fatalf("%v: no solution (status %v)", form, ms.Status)
		}
		rep := certify.Solution(inst, sol, certify.Options{
			Objective: core.AccessControl,
			Mapping:   sc.Mapping,
		})
		if err := rep.Err(); err != nil {
			t.Errorf("%v: known-good solution rejected: %v", form, err)
		}
	}
}

// TestKnownGoodObjectives certifies cΣ solutions under every Section IV-E
// objective, including the recomputation direction rules. Fixed-set
// objectives force every request to be embedded, so — as in the eval
// pipeline — the instance is first restricted to an admission-controlled
// accepted set.
func TestKnownGoodObjectives(t *testing.T) {
	sc := smallScenario(t)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}

	pre := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.AccessControl,
		FixedMapping: sc.Mapping,
	})
	preSol, ms := pre.Solve(context.Background(), solveOpts())
	if preSol == nil {
		t.Fatalf("admission solve failed (status %v)", ms.Status)
	}
	rep := certify.Solution(inst, preSol, certify.Options{
		Objective: core.AccessControl,
		Mapping:   sc.Mapping,
	})
	if err := rep.Err(); err != nil {
		t.Errorf("access-control: known-good solution rejected: %v", err)
	}

	var reqs []*vnet.Request
	var subMap vnet.NodeMapping
	for r, acc := range preSol.Accepted {
		if acc {
			reqs = append(reqs, inst.Reqs[r])
			subMap = append(subMap, sc.Mapping[r])
		}
	}
	if len(reqs) == 0 {
		t.Fatal("admission control accepted no requests")
	}
	fixed := &core.Instance{Sub: sc.Substrate, Reqs: reqs, Horizon: sc.Horizon}
	for _, obj := range []core.Objective{
		core.MaxEarliness, core.BalanceNodeLoad, core.DisableLinks, core.MinMakespan,
	} {
		b := core.BuildCSigma(fixed, core.BuildOptions{
			Objective:    obj,
			FixedMapping: subMap,
		})
		sol, ms := b.Solve(context.Background(), solveOpts())
		if sol == nil {
			t.Fatalf("%v: no solution (status %v)", obj, ms.Status)
		}
		rep := certify.Solution(fixed, sol, certify.Options{
			Objective: obj,
			Mapping:   subMap,
		})
		if err := rep.Err(); err != nil {
			t.Errorf("%v: known-good solution rejected: %v", obj, err)
		}
	}
}

// TestKnownGoodGreedy certifies the greedy algorithm's final solution.
func TestKnownGoodGreedy(t *testing.T) {
	sc := smallScenario(t)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	sol, _, err := admit.Greedy(context.Background(), inst, sc.Mapping, core.BuildOptions{}, solveOpts())
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	rep := certify.Solution(inst, sol, certify.Options{
		Objective: core.AccessControl,
		Mapping:   sc.Mapping,
	})
	if err := rep.Err(); err != nil {
		t.Errorf("greedy known-good solution rejected: %v", err)
	}
}

// tinyInstance is a deterministic 2-node substrate with one chain request
// whose unique embedding routes one unit over the 0→1 link.
func tinyInstance(t *testing.T, nodeCap, linkCap float64, numReqs int) (*core.Instance, *solution.Solution, int) {
	t.Helper()
	sub := substrate.Grid(1, 2, nodeCap, linkCap)
	e01 := -1
	for e := 0; e < sub.NumLinks(); e++ {
		u, v := sub.G.Edge(e)
		if u == 0 && v == 1 {
			e01 = e
		}
	}
	if e01 < 0 {
		t.Fatal("grid substrate has no 0→1 link")
	}
	var reqs []*vnet.Request
	for i := 0; i < numReqs; i++ {
		r := vnet.Chain("A", 2, 1, 1)
		r.Duration = 1
		r.Earliest = 0
		r.Latest = 2
		reqs = append(reqs, r)
	}
	inst := &core.Instance{Sub: sub, Reqs: reqs, Horizon: 3}
	sol := &solution.Solution{
		Accepted: make([]bool, numReqs),
		Start:    make([]float64, numReqs),
		End:      make([]float64, numReqs),
		Hosts:    make([][]int, numReqs),
		Flows:    make([][][]float64, numReqs),
	}
	for i := 0; i < numReqs; i++ {
		sol.Accepted[i] = true
		sol.Start[i] = 0
		sol.End[i] = 1
		sol.Hosts[i] = []int{0, 1}
		flow := make([]float64, sub.NumLinks())
		flow[e01] = 1
		sol.Flows[i] = [][]float64{flow}
		sol.Objective += 2 // d·Σc = 1·(1+1) per accepted request
	}
	return inst, sol, e01
}

// TestMutationsRejected verifies that every corruption of a known-good
// solution is rejected with its precise named violation.
func TestMutationsRejected(t *testing.T) {
	base := func() (*core.Instance, *solution.Solution, int) {
		return tinyInstance(t, 10, 10, 1)
	}
	opts := certify.Options{Objective: core.AccessControl}

	t.Run("baseline-accepted", func(t *testing.T) {
		inst, sol, _ := base()
		if err := certify.Solution(inst, sol, opts).Err(); err != nil {
			t.Fatalf("baseline must certify: %v", err)
		}
	})
	t.Run("window", func(t *testing.T) {
		inst, sol, _ := base()
		sol.Start[0], sol.End[0] = 1.5, 2.5 // ends after latest=2
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.Window) {
			t.Fatalf("want %v, got %v", certify.Window, rep.Violations)
		}
	})
	t.Run("duration", func(t *testing.T) {
		inst, sol, _ := base()
		sol.End[0] = 1.7 // duration 1.7 != 1
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.Duration) {
			t.Fatalf("want %v, got %v", certify.Duration, rep.Violations)
		}
	})
	t.Run("flow-conservation", func(t *testing.T) {
		inst, sol, e01 := base()
		sol.Flows[0][0][e01] = 0.25 // ships only a quarter unit
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.FlowConservation) {
			t.Fatalf("want %v, got %v", certify.FlowConservation, rep.Violations)
		}
	})
	t.Run("flow-range", func(t *testing.T) {
		inst, sol, e01 := base()
		sol.Flows[0][0][e01] = 1.4
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.FlowRange) {
			t.Fatalf("want %v, got %v", certify.FlowRange, rep.Violations)
		}
	})
	t.Run("host-range", func(t *testing.T) {
		inst, sol, _ := base()
		sol.Hosts[0][1] = 9
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.HostRange) {
			t.Fatalf("want %v, got %v", certify.HostRange, rep.Violations)
		}
	})
	t.Run("mapping-pinned", func(t *testing.T) {
		inst, sol, _ := base()
		pinned := opts
		pinned.Mapping = vnet.NodeMapping{{1, 0}} // solution uses {0,1}
		rep := certify.Solution(inst, sol, pinned)
		if !rep.Has(certify.MappingPinned) {
			t.Fatalf("want %v, got %v", certify.MappingPinned, rep.Violations)
		}
	})
	t.Run("node-capacity", func(t *testing.T) {
		// Two overlapping unit-demand requests on a 1.5-capacity node.
		inst, sol, _ := tinyInstance(t, 1.5, 10, 2)
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.NodeCapacity) {
			t.Fatalf("want %v, got %v", certify.NodeCapacity, rep.Violations)
		}
	})
	t.Run("link-capacity", func(t *testing.T) {
		// Two overlapping unit-demand flows on a 1.5-capacity link.
		inst, sol, _ := tinyInstance(t, 10, 1.5, 2)
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.LinkCapacity) {
			t.Fatalf("want %v, got %v", certify.LinkCapacity, rep.Violations)
		}
	})
	t.Run("staggered-requests-fit", func(t *testing.T) {
		// The same two requests certify once they do not overlap.
		inst, sol, _ := tinyInstance(t, 1.5, 1.5, 2)
		sol.Start[1], sol.End[1] = 1, 2
		if err := certify.Solution(inst, sol, opts).Err(); err != nil {
			t.Fatalf("staggered solution must certify: %v", err)
		}
	})
	t.Run("objective-mismatch", func(t *testing.T) {
		inst, sol, _ := base()
		sol.Objective += 5
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.Objective) {
			t.Fatalf("want %v, got %v", certify.Objective, rep.Violations)
		}
	})
	t.Run("shape", func(t *testing.T) {
		inst, sol, _ := base()
		sol.Start = sol.Start[:0]
		rep := certify.Solution(inst, sol, opts)
		if !rep.Has(certify.Shape) {
			t.Fatalf("want %v, got %v", certify.Shape, rep.Violations)
		}
	})
}

// smallLP builds max 3x+2y s.t. x+y ≤ 4, x ∈ [0,2], y ∈ [0,3]
// (optimum x=2, y=2, objective 10).
func smallLP() *lp.Problem {
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	x := p.AddCol(3, 0, 2)
	y := p.AddCol(2, 0, 3)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 1}, 4)
	return p
}

// TestLPCertificateKnownGood certifies honest LP results: a hand-sized LP
// and a real model root relaxation.
func TestLPCertificateKnownGood(t *testing.T) {
	p := smallLP()
	res := lp.Solve(p, nil)
	if res.Status != lp.StatusOptimal {
		t.Fatalf("solve: %v", res.Status)
	}
	cert := certify.LP(p, res, 0)
	if err := cert.Err(); err != nil {
		t.Fatalf("known-good LP rejected: %v", err)
	}
	if cert.PrimalResidual > certify.DefaultLPTol || cert.DualityGap > certify.DefaultLPTol {
		t.Fatalf("residuals too large: primal %v gap %v", cert.PrimalResidual, cert.DualityGap)
	}

	// Root relaxation of a real model (exercises dual recovery on a model's
	// degenerate rows and fixed columns).
	sc := smallScenario(t)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.AccessControl,
		FixedMapping: sc.Mapping,
	})
	lpp := b.Model.LP()
	rres := lp.Solve(lpp, nil)
	if rres.Status != lp.StatusOptimal {
		t.Fatalf("root LP: %v", rres.Status)
	}
	rcert := certify.LP(lpp, rres, 0)
	if err := rcert.Err(); err != nil {
		t.Fatalf("root LP certificate rejected: %v", err)
	}
}

// TestLPCertificateMutations corrupts optimal LP results and checks each
// corruption is caught by the matching certificate condition.
func TestLPCertificateMutations(t *testing.T) {
	p := smallLP()
	res := lp.Solve(p, nil)
	if res.Status != lp.StatusOptimal {
		t.Fatalf("solve: %v", res.Status)
	}
	clone := func() lp.Result {
		c := res
		c.X = append([]float64(nil), res.X...)
		c.Duals = append([]float64(nil), res.Duals...)
		return c
	}
	t.Run("row-residual", func(t *testing.T) {
		r := clone()
		r.X[1] += 0.5 // activity 4.5 > 4
		cert := certify.LP(p, r, 0)
		if !cert.Has(certify.LPRowResidual) {
			t.Fatalf("want %v, got %v", certify.LPRowResidual, cert.Violations)
		}
	})
	t.Run("bound", func(t *testing.T) {
		r := clone()
		r.X[0] = 2.5 // above ub 2
		cert := certify.LP(p, r, 0)
		if !cert.Has(certify.LPBound) {
			t.Fatalf("want %v, got %v", certify.LPBound, cert.Violations)
		}
	})
	t.Run("dual-sign", func(t *testing.T) {
		r := clone()
		r.Duals[0] = -r.Duals[0] - 1
		cert := certify.LP(p, r, 0)
		if !cert.Has(certify.LPDualSign) && !cert.Has(certify.LPDualityGap) {
			t.Fatalf("want dual violation, got %v", cert.Violations)
		}
	})
	t.Run("objective", func(t *testing.T) {
		r := clone()
		r.Obj += 1
		cert := certify.LP(p, r, 0)
		if !cert.Has(certify.LPObjective) {
			t.Fatalf("want %v, got %v", certify.LPObjective, cert.Violations)
		}
	})
	t.Run("non-optimal-status", func(t *testing.T) {
		r := clone()
		r.Status = lp.StatusIterLimit
		cert := certify.LP(p, r, 0)
		if !cert.Has(certify.LPStatus) {
			t.Fatalf("want %v, got %v", certify.LPStatus, cert.Violations)
		}
	})
}
