package tvnep

import (
	"math"
	"testing"

	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/workload"
)

// TestPresolveRoundTripModelFamilies solves the LP relaxation of every model
// family (Δ, Σ, cΣ and the discrete baseline) through the presolve layer and
// verifies the postsolved solution against the ORIGINAL rows and bounds, and
// against a direct no-presolve simplex run: same status, same objective,
// every constraint satisfied within 1e-6.
func TestPresolveRoundTripModelFamilies(t *testing.T) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 4
	wl.FlexibilityHr = 2
	sc := workload.Generate(wl, 3)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	opts := core.BuildOptions{Objective: core.AccessControl, FixedMapping: sc.Mapping}

	problems := map[string]*lp.Problem{
		"delta":    core.Build(core.Delta, inst, opts).Model.LP(),
		"sigma":    core.Build(core.Sigma, inst, opts).Model.LP(),
		"csigma":   core.Build(core.CSigma, inst, opts).Model.LP(),
		"discrete": core.BuildDiscrete(inst, opts, 1.0).Model.LP(),
	}
	for name, p := range problems {
		t.Run(name, func(t *testing.T) {
			via := lp.Solve(p, nil)
			direct := lp.NewInstance(p).Solve(nil)
			if via.Status != direct.Status {
				t.Fatalf("status %v (presolved) vs %v (direct)", via.Status, direct.Status)
			}
			if via.Status != lp.StatusOptimal {
				t.Fatalf("relaxation status %v, want optimal", via.Status)
			}
			if math.Abs(via.Obj-direct.Obj) > 1e-6*(1+math.Abs(direct.Obj)) {
				t.Fatalf("obj %v (presolved) vs %v (direct)", via.Obj, direct.Obj)
			}
			for j, v := range via.X {
				if v < p.ColLB[j]-1e-6 || v > p.ColUB[j]+1e-6 {
					t.Fatalf("column %d: value %v outside [%v, %v]",
						j, v, p.ColLB[j], p.ColUB[j])
				}
			}
			for i := 0; i < p.NumRows(); i++ {
				idx, val := p.Row(i)
				act := 0.0
				for k, jj := range idx {
					act += val[k] * via.X[jj]
				}
				if act < p.RowLB[i]-1e-6 || act > p.RowUB[i]+1e-6 {
					t.Fatalf("row %d: activity %v outside [%v, %v]",
						i, act, p.RowLB[i], p.RowUB[i])
				}
			}
		})
	}
}
