package tvnep

import (
	"context"
	"math"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// TestRootLPCertifiesEveryFamily solves every model family (Δ, Σ, cΣ in arc
// mode, cΣ in path mode with lazy cuts, and the discrete baseline) as a MIP
// and checks the root relaxation the search branched from: it must pass
// the independent LP certificate against the model's own rows and bounds,
// and its objective must equal a cold solve of the same LP. The root is the
// first node any search evaluates, so one node suffices; Δ would otherwise
// spend seconds proving an optimum this test does not look at.
func TestRootLPCertifiesEveryFamily(t *testing.T) {
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 4
	wl.FlexibilityHr = 2
	sc := workload.Generate(wl, 3)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	opts := core.BuildOptions{Objective: core.AccessControl, FixedMapping: sc.Mapping}
	pathLazy := opts
	pathLazy.FlowMode, pathLazy.CutMode = core.FlowPath, core.CutLazy

	cases := []struct {
		name  string
		build func() *core.Built
	}{
		{"delta", func() *core.Built { return core.Build(core.Delta, inst, opts) }},
		{"sigma", func() *core.Built { return core.Build(core.Sigma, inst, opts) }},
		{"csigma", func() *core.Built { return core.Build(core.CSigma, inst, opts) }},
		{"csigma-path-lazy", func() *core.Built { return core.Build(core.CSigma, inst, pathLazy) }},
		{"discrete", func() *core.Built { return core.BuildDiscrete(inst, opts, 1.0).Built }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build()
			_, ms := b.Solve(context.Background(), &model.SolveOptions{NodeLimit: 1})
			if ms.Root.Status != lp.StatusOptimal {
				t.Fatalf("root relaxation status %v (search status %v)", ms.Root.Status, ms.Status)
			}
			if cert := certify.LP(b.Model.LP(), ms.Root, 0); cert.Err() != nil {
				t.Fatalf("root LP certificate: %v", cert.Err())
			}
			cold := lp.Solve(b.Model.LP(), nil)
			if d := math.Abs(ms.Root.Obj - cold.Obj); d > 1e-6*math.Max(1, math.Abs(cold.Obj)) {
				t.Fatalf("root objective %v, cold relaxation %v", ms.Root.Obj, cold.Obj)
			}
		})
	}
}
