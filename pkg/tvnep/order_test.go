package tvnep_test

import (
	"context"
	"math"
	"testing"

	"tvnep/internal/numtol"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// TestRequestOrderInvariance is a metamorphic check of the cΣ model: its
// access-control optimum is a property of the request set, not of the order
// the requests are listed in. Reversing or rotating the requests, with the
// node mapping permuted alongside, must leave the certified optimum
// unchanged.
func TestRequestOrderInvariance(t *testing.T) {
	reverse := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = n - 1 - i
		}
		return p
	}
	rotate := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = (i + 1) % n
		}
		return p
	}
	testdata := []struct {
		seed int64
		mode tvnep.CutMode
	}{
		{1, tvnep.CutStatic}, {1, tvnep.CutLazy},
		{2, tvnep.CutStatic}, {2, tvnep.CutLazy},
		{3, tvnep.CutStatic}, {3, tvnep.CutLazy},
		{4, tvnep.CutStatic}, {4, tvnep.CutLazy},
	}

	for _, testd := range testdata {
		cfg := workload.Default()
		cfg.GridRows, cfg.GridCols = 2, 2
		cfg.NumRequests = 5
		cfg.FlexibilityHr = 1
		sc := workload.Generate(cfg, testd.seed)
		solve := func(perm []int) float64 {
			reqs := make([]*tvnep.Request, len(perm))
			mapping := make(tvnep.NodeMapping, len(perm))
			for i, r := range perm {
				reqs[i], mapping[i] = sc.Requests[r], sc.Mapping[r]
			}
			solver, err := tvnep.New(sc.Substrate,
				tvnep.WithHorizon(sc.Horizon), tvnep.WithCutMode(testd.mode), tvnep.WithCertify())
			if err != nil {
				t.Fatalf("seed %d %v: New: %v", testd.seed, testd.mode, err)
			}
			res, err := solver.Solve(context.Background(), reqs, mapping)
			if err != nil {
				t.Fatalf("seed %d %v order %v: %v", testd.seed, testd.mode, perm, err)
			}
			if res.Status != tvnep.StatusOptimal {
				t.Fatalf("seed %d %v order %v: status %v", testd.seed, testd.mode, perm, res.Status)
			}
			return res.Solution.Objective
		}
		n := len(sc.Requests)
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want := solve(identity)
		for _, perm := range [][]int{reverse(n), rotate(n)} {
			got := solve(perm)
			if math.Abs(got-want) > numtol.MIPGapTol*math.Max(1, math.Abs(want)) {
				t.Errorf("seed %d %v: order %v optimum %v, listed order %v", testd.seed, testd.mode, perm, got, want)
			}
		}
	}
}
