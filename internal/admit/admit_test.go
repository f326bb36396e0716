package admit

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/workload"
)

// trace generates a seeded arrival trace sized for the test mode.
func trace(t *testing.T, n int, seed int64) *workload.Scenario {
	t.Helper()
	cfg := workload.Default()
	cfg.NumRequests = n
	cfg.FlexibilityHr = 2
	sc := workload.Generate(cfg, seed)
	if err := sc.Validate(); err != nil {
		t.Fatalf("generated scenario invalid: %v", err)
	}
	return sc
}

// replay streams a whole scenario through a fresh engine and returns it.
func replay(t *testing.T, sc *workload.Scenario, cfg Config) *Engine {
	t.Helper()
	cfg.Sub = sc.Substrate
	cfg.Horizon = sc.Horizon
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, req := range sc.Requests {
		if _, err := eng.Admit(context.Background(), req, sc.Mapping[i]); err != nil {
			t.Fatalf("Admit(%d): %v", i, err)
		}
	}
	return eng
}

// TestReplayDeterminism replays one seeded trace twice through certifying
// engines: every decision must match bit for bit, its verdict, tier,
// schedule and solver counters (trajectoryLine) and its hosts and flows
// (decisionDigest). The accept/reject sequence is a pure function
// of the submission order.
func TestReplayDeterminism(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 20
	}
	sc := trace(t, n, 7)
	cfg := Config{Certify: true}
	first, second := replay(t, sc, cfg).Decisions(), replay(t, sc, cfg).Decisions()
	for i := range first {
		if a, b := trajectoryLine(first[i]), trajectoryLine(second[i]); a != b {
			t.Fatalf("decision %d differs between two runs:\nfirst:  %s\nsecond: %s", i, a, b)
		}
	}
	if a, b := decisionDigest(first), decisionDigest(second); a != b {
		t.Fatalf("hosts or flows differ between two runs: digests %#016x and %#016x", a, b)
	}
}

// TestMatchesGreedy streams a trace whose arrival order equals the
// earliest-start order (workload arrivals are Poisson-ordered) and checks
// the engine reproduces the cΣ_A^G reference's accept set and schedules:
// on this trace pinning the committed flows costs no acceptance, so the
// engine, with active-set pruning and tiered solves, must coincide with
// the per-iteration loop.
func TestMatchesGreedy(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 12
	}
	sc := trace(t, n, 11)
	eng := replay(t, sc, Config{})

	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	gsol := refGreedy(t, inst, sc.Mapping)
	ds := eng.Decisions()
	for i := range sc.Requests {
		if ds[i].Accepted != gsol.Accepted[i] {
			t.Errorf("request %d: engine accept=%v, greedy accept=%v", i, ds[i].Accepted, gsol.Accepted[i])
			continue
		}
		if !ds[i].Accepted {
			continue
		}
		if math.Abs(ds[i].Start-gsol.Start[i]) > numtol.TimeTol {
			t.Errorf("request %d: engine start %v, greedy start %v", i, ds[i].Start, gsol.Start[i])
		}
	}
}

// TestSnapshotCertifies certifies the engine's cumulative solution with the
// independent checker after a full streamed trace, under the access-control
// objective the engine optimizes. Per decision the engine certifies only the
// committed requests an acceptance overlaps (certify.Extension), so on the
// longer traces each per-decision certificate sees a few of the committed
// requests out of a hundred or more: the whole-system certificate here pins
// the induction that makes that enough, with and without re-optimized
// flows.
func TestSnapshotCertifies(t *testing.T) {
	for _, tc := range []struct {
		n          int
		reoptEvery int
	}{{25, 4}, {300, 0}, {300, 10}} {
		t.Run(fmt.Sprintf("n=%d/reopt=%d", tc.n, tc.reoptEvery), func(t *testing.T) {
			sc := trace(t, tc.n, 5)
			eng := replay(t, sc, Config{Certify: true, ReoptEvery: tc.reoptEvery})
			inst, mapping, sol := eng.Snapshot()
			rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
			if err := rep.Err(); err != nil {
				t.Fatalf("snapshot does not certify: %v", err)
			}
			if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
				t.Fatalf("snapshot fails the feasibility checker: %v", err)
			}
			s := eng.Stats()
			if s.Decisions != len(sc.Requests) {
				t.Fatalf("decisions %d != requests %d", s.Decisions, len(sc.Requests))
			}
			if s.Accepted == 0 {
				t.Fatal("trace accepted nothing; scenario too tight to be meaningful")
			}
			if tc.reoptEvery > 0 && s.Reopts == 0 {
				t.Fatal("no re-optimization was committed")
			}
			t.Logf("accepted %d/%d, tiers precheck=%d mip=%d, reopts=%d",
				s.Accepted, s.Decisions, s.PrecheckTier, s.MIPTier, s.Reopts)
		})
	}
}

// TestPrecheckReject covers the no-solve tier: a request whose own demand
// exceeds a node capacity must be rejected without touching the solver.
func TestPrecheckReject(t *testing.T) {
	sc := trace(t, 1, 1)
	eng := replay(t, sc, Config{})
	req := *sc.Requests[0]
	req.Name = "too-big"
	req.NodeDemand = append([]float64(nil), req.NodeDemand...)
	req.NodeDemand[0] = sc.Substrate.NodeCap[sc.Mapping[0][0]] + 1
	d, err := eng.Admit(context.Background(), &req, sc.Mapping[0])
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if d.Accepted || d.Stats.Tier != TierPrecheck {
		t.Fatalf("want precheck rejection, got accepted=%v tier=%q", d.Accepted, d.Stats.Tier)
	}
	if d.Start != req.Earliest || d.End != req.EarliestEnd() {
		t.Fatalf("rejected times [%v,%v] != Definition-2.1 fixed [%v,%v]",
			d.Start, d.End, req.Earliest, req.EarliestEnd())
	}
}
