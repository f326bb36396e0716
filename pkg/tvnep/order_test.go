package tvnep_test

import (
	"context"
	"math"
	"testing"

	"tvnep/internal/graph"
	"tvnep/internal/numtol"
	"tvnep/internal/workload"
	"tvnep/pkg/tvnep"
)

// invarianceCases are the metamorphic tests' scenarios: seeds 1–4 of a 2×2
// grid with five requests, each solved with static and with lazy cuts.
var invarianceCases = []struct {
	seed int64
	mode tvnep.CutMode
}{
	{1, tvnep.CutStatic}, {1, tvnep.CutLazy},
	{2, tvnep.CutStatic}, {2, tvnep.CutLazy},
	{3, tvnep.CutStatic}, {3, tvnep.CutLazy},
	{4, tvnep.CutStatic}, {4, tvnep.CutLazy},
}

func invarianceScenario(seed int64) *workload.Scenario {
	cfg := workload.Default()
	cfg.GridRows, cfg.GridCols = 2, 2
	cfg.NumRequests = 5
	cfg.FlexibilityHr = 1
	return workload.Generate(cfg, seed)
}

// certifiedOptimum solves the access-control cΣ model with certification
// and returns its optimum; what names the variant in failure messages.
func certifiedOptimum(t *testing.T, what string, sub *tvnep.Substrate, horizon float64, mode tvnep.CutMode,
	reqs []*tvnep.Request, mapping tvnep.NodeMapping) float64 {
	t.Helper()
	solver, err := tvnep.New(sub, tvnep.WithHorizon(horizon), tvnep.WithCutMode(mode), tvnep.WithCertify())
	if err != nil {
		t.Fatalf("%s: New: %v", what, err)
	}
	res, err := solver.Solve(context.Background(), reqs, mapping)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if res.Status != tvnep.StatusOptimal {
		t.Fatalf("%s: status %v", what, res.Status)
	}
	return res.Solution.Objective
}

func reversePerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func rotatePerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i + 1) % n
	}
	return p
}

func sameOptimum(got, want float64) bool {
	return math.Abs(got-want) <= numtol.MIPGapTol*math.Max(1, math.Abs(want))
}

// TestRequestOrderInvariance is a metamorphic check of the cΣ model: its
// access-control optimum is a property of the request set, not of the order
// the requests are listed in. Reversing or rotating the requests, with the
// node mapping permuted alongside, must leave the certified optimum
// unchanged.
func TestRequestOrderInvariance(t *testing.T) {
	for _, tc := range invarianceCases {
		sc := invarianceScenario(tc.seed)
		solve := func(perm []int) float64 {
			reqs := make([]*tvnep.Request, len(perm))
			mapping := make(tvnep.NodeMapping, len(perm))
			for i, r := range perm {
				reqs[i], mapping[i] = sc.Requests[r], sc.Mapping[r]
			}
			return certifiedOptimum(t, "order", sc.Substrate, sc.Horizon, tc.mode, reqs, mapping)
		}
		n := len(sc.Requests)
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want := solve(identity)
		for _, perm := range [][]int{reversePerm(n), rotatePerm(n)} {
			if got := solve(perm); !sameOptimum(got, want) {
				t.Errorf("seed %d %v: order %v optimum %v, listed order %v", tc.seed, tc.mode, perm, got, want)
			}
		}
	}
}

// TestSubstrateRelabelInvariance is the substrate-side metamorphic check:
// the optimum is a property of the substrate graph, not of its node and
// link ids. Substrate node i becomes node perm[i], links are re-added in
// reverse order (so every link id changes too) with their capacities, and
// the node mapping is relabelled alongside; the certified optimum must not
// move. The capacities are skewed per node and per link first: with the
// uniform ones, the symmetric 2×2 grid gives the same optimum even for a
// mapping left unrelabelled, so the check could not fail.
func TestSubstrateRelabelInvariance(t *testing.T) {
	for _, tc := range invarianceCases {
		sc := invarianceScenario(tc.seed)
		for i := range sc.Substrate.NodeCap {
			sc.Substrate.NodeCap[i] *= 1 - 0.15*float64(i)
		}
		for e := range sc.Substrate.LinkCap {
			sc.Substrate.LinkCap[e] *= 0.2 + 0.1*float64(e)
		}
		want := certifiedOptimum(t, "identity", sc.Substrate, sc.Horizon, tc.mode, sc.Requests, sc.Mapping)
		n := sc.Substrate.NumNodes()
		for _, perm := range [][]int{reversePerm(n), rotatePerm(n)} {
			g := graph.NewDigraph(n)
			sub := &tvnep.Substrate{G: g, NodeCap: make([]float64, n)}
			for i, c := range sc.Substrate.NodeCap {
				sub.NodeCap[perm[i]] = c
			}
			for e := sc.Substrate.NumLinks() - 1; e >= 0; e-- {
				u, v := sc.Substrate.G.Edge(e)
				g.AddEdge(perm[u], perm[v])
				sub.LinkCap = append(sub.LinkCap, sc.Substrate.LinkCap[e])
			}
			mapping := make(tvnep.NodeMapping, len(sc.Mapping))
			for r, hosts := range sc.Mapping {
				mapping[r] = make([]int, len(hosts))
				for v, s := range hosts {
					mapping[r][v] = perm[s]
				}
			}
			if got := certifiedOptimum(t, "relabel", sub, sc.Horizon, tc.mode, sc.Requests, mapping); !sameOptimum(got, want) {
				t.Errorf("seed %d %v: substrate relabelled by %v optimum %v, original ids %v", tc.seed, tc.mode, perm, got, want)
			}
		}
	}
}
