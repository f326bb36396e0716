package admit

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"tvnep/internal/graph"
	"tvnep/internal/lp"
	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// decisionDigest hashes what a decision commits or answers: the verdict,
// the exact bits of Start and End, and the Hosts and Flows of the
// embedding. Solver counters and tiers are left out, so two engines that
// reach the same decisions by different amounts of work digest equal.
func decisionDigest(ds []Decision) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range ds {
		if d.Accepted {
			word(1)
		} else {
			word(0)
		}
		word(math.Float64bits(d.Start))
		word(math.Float64bits(d.End))
		word(uint64(len(d.Hosts)))
		for _, s := range d.Hosts {
			word(uint64(s))
		}
		word(uint64(len(d.Flows)))
		for _, row := range d.Flows {
			word(uint64(len(row)))
			for _, f := range row {
				word(math.Float64bits(f))
			}
		}
	}
	return h.Sum64()
}

// TestRejectionBoundKeepsDecisions replays the 4000-request default-preset
// traces of seeds 3 and 7 (a 1000-request prefix under -short) and compares
// the digest of every decision against recorded digests. The exact
// engine's were recorded from an engine that searched every non-integral
// rejection with branch and bound, without a root-bound rejection: how
// much work a decision takes must never change its answer. The rounding
// engine's were recorded from an engine that rounds every optimal root
// relaxation, integral ones included; it accepts 2,582 and 2,576 requests
// of the full traces, as many as when integral roots were decided without
// rounding.
func TestRejectionBoundKeepsDecisions(t *testing.T) {
	rounding := Config{Rounding: true, Seed: 5}
	for _, tc := range []struct {
		seed        int64
		cfg         Config
		full, short uint64
	}{
		{3, Config{}, 0x6f293036e9459870, 0x37026d6e24f5a477},
		{7, Config{}, 0x670fd24b60a4439b, 0x030c8979499757ea},
		{3, rounding, 0xdd476779a6f14a2e, 0x91bf512feb84dc6f},
		{7, rounding, 0x0d0e7863cb62134d, 0x9b10c37275d1ab0d},
	} {
		sc := trace(t, 4000, tc.seed)
		want := tc.full
		if testing.Short() {
			sc.Requests, sc.Mapping = sc.Requests[:1000], sc.Mapping[:1000]
			want = tc.short
		}
		eng := replay(t, sc, tc.cfg)
		got := decisionDigest(eng.Decisions())
		s := eng.Stats()
		t.Logf("seed %d rounding=%v, %d decisions: digest %#016x, %d accepted, precheck=%d rounding=%d mip=%d, %d LP iterations, %d nodes",
			tc.seed, tc.cfg.Rounding, s.Decisions, got, s.Accepted, s.PrecheckTier, s.RoundingTier, s.MIPTier, s.LPIterations, s.Nodes)
		if got != want {
			t.Errorf("seed %d rounding=%v: decision digest %#016x, want %#016x", tc.seed, tc.cfg.Rounding, got, want)
		}
	}
}

// TestRejectionBoundMargin admits a hand-built request whose root bound
// lies a chosen distance below tau = 2T − t^e, the score every acceptance
// reaches under objective (21). On a 1×2 grid with node
// capacity 3 and link capacity 5, a committed request holds 4 units of the
// link from node 0 to node 1 over [0, 4]; the arriving request (duration 2,
// window [0, 5], so it must overlap) asks for D > 1 units of that link, and
// the root relaxation accepts the fraction x_R = 1/D of it ending at
// t⁻ = 2: bound 10/D + 8 against tau = 15 for T = 10. Both requests put 1
// unit on each node, so node load alone proves nothing and the precheck
// passes the request on. Choosing D = 10/(7 − gap) puts the bound gap below
// tau. Twice the margin ObjTol·tau below tau and half the margin below,
// the branch-and-bound search decides, and rejects: the request does not
// fit.
func TestRejectionBoundMargin(t *testing.T) {
	const T, latest = 10.0, 5.0
	tau := 2*T - latest
	margin := numtol.ObjTol * tau
	for _, tc := range []struct {
		name string
		gap  float64 // tau − root bound, in units of the margin
	}{
		{"below-margin", 2},
		{"inside-margin", 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Config{Sub: substrate.Grid(1, 2, 3, 5), Horizon: T})
			if err != nil {
				t.Fatal(err)
			}
			mapping := []int{0, 1}
			if d, err := eng.Admit(context.Background(), linkRequest("a", 4, 0, 4, 4), mapping); err != nil || !d.Accepted {
				t.Fatalf("committed request: accepted=%v err=%v", d.Accepted, err)
			}
			req := linkRequest("b", T/(T-3-tc.gap*margin), 0, 2, latest)
			if eng.precheckRejects(req, mapping, eng.overlapping(req)) {
				t.Fatal("the precheck rejects the request on node load")
			}
			b, _ := eng.model(&record{req: req, mapping: mapping}, eng.overlapping(req))
			root := lp.NewInstance(b.Model.LP()).Solve(&lp.Options{})
			if root.Status != lp.StatusOptimal || math.Abs(tau-root.Obj-tc.gap*margin) > margin/100 {
				t.Fatalf("root bound %v (status %v), want %v", root.Obj, root.Status, tau-tc.gap*margin)
			}
			d, err := eng.Admit(context.Background(), req, mapping)
			if err != nil {
				t.Fatal(err)
			}
			if d.Accepted || d.Stats.Tier != TierMIP {
				t.Fatalf("accepted=%v tier=%q, want a rejection at tier %q", d.Accepted, d.Stats.Tier, TierMIP)
			}
			if d.Stats.Nodes == 0 {
				t.Fatalf("rejected at tier %q without a branch-and-bound node", d.Stats.Tier)
			}
		})
	}
}

// linkRequest builds a request of two virtual nodes with 1 unit of demand
// each, joined by one virtual link from node 0 to node 1 with the given
// demand.
func linkRequest(name string, demand, earliest, duration, latest float64) *vnet.Request {
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	return &vnet.Request{
		Name:       name,
		G:          g,
		NodeDemand: []float64{1, 1},
		LinkDemand: []float64{demand},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}
