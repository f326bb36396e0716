package admit

import (
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/solution"
)

// TestRoundingTierEngages streams a trace through an engine with the
// rounding fast tier enabled: the tier must decide a positive share of the
// admissions, only ever as accepts, and the committed state must still
// pass the full independent certificate at the end of the trace.
func TestRoundingTierEngages(t *testing.T) {
	sc := trace(t, 40, 7)
	eng := replay(t, sc, Config{Rounding: true, Seed: 5, Certify: true})
	s := eng.Stats()
	if s.RoundingTier == 0 {
		t.Fatalf("rounding tier never engaged: %+v", s)
	}
	if s.CertFailures != 0 {
		t.Fatalf("%d certificate failures across the trace", s.CertFailures)
	}
	for _, d := range eng.Decisions() {
		if d.Stats.Tier == TierRounding && !d.Accepted {
			t.Fatalf("decision %d: rounding tier produced a rejection", d.Index)
		}
	}
	inst, mapping, sol := eng.Snapshot()
	rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
	if err := rep.Err(); err != nil {
		t.Fatalf("snapshot does not certify: %v", err)
	}
	if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
		t.Fatalf("snapshot fails the feasibility checker: %v", err)
	}
	t.Logf("tiers precheck=%d rounding=%d mip=%d, accepted %d/%d",
		s.PrecheckTier, s.RoundingTier, s.MIPTier, s.Accepted, s.Decisions)
}

// TestRoundingTierDeterminism replays one trace with the rounding tier
// twice at the same seed: every decision must match bit for bit, its
// verdict, tier, schedule and solver counters (trajectoryLine) and its
// hosts and flows (decisionDigest). The tier's per-decision seeds derive
// only from Config.Seed and the decision index.
func TestRoundingTierDeterminism(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 15
	}
	sc := trace(t, n, 11)
	cfg := Config{Rounding: true, Seed: 23}
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

// TestRoundingTierSeedSensitivity double-checks the seed is actually
// load-bearing: the engine must keep producing valid traces under a
// different seed (decisions may or may not coincide), and the committed
// snapshot must certify either way.
func TestRoundingTierSeedSensitivity(t *testing.T) {
	sc := trace(t, 20, 13)
	for _, seed := range []int64{1, 99} {
		eng := replay(t, sc, Config{Rounding: true, Seed: seed, Certify: true})
		inst, mapping, sol := eng.Snapshot()
		rep := certify.Solution(inst, sol, certify.Options{Objective: core.AccessControl, Mapping: mapping})
		if err := rep.Err(); err != nil {
			t.Fatalf("seed=%d: snapshot does not certify: %v", seed, err)
		}
	}
}
