package eval

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/workload"
)

func TestRelaxationSweepOrdering(t *testing.T) {
	wl := workload.Config{
		GridRows: 2, GridCols: 2, NodeCap: 2, LinkCap: 2,
		NumRequests: 3, StarLeaves: 1,
		DemandLow: 0.5, DemandHigh: 1.5,
		MeanInterArr: 1, WeibullShape: 2, WeibullScale: 2,
	}
	cfg := Config{
		Workload:    wl,
		FlexMinutes: []float64{0, 120},
		Seeds:       []int64{1, 2, 3},
		TimeLimit:   30 * time.Second,
	}
	recs := cfg.RelaxationSweep(context.Background(), nil)
	if len(recs) != 2*3*3 {
		t.Fatalf("%d records, want 18", len(recs))
	}
	// Per scenario: Δ bound ≥ Σ bound (Section III-C proves dominance) and
	// every relaxation upper-bounds the exact optimum.
	byKey := map[[2]int64]map[core.Formulation]RelaxationRecord{}
	for _, r := range recs {
		k := [2]int64{int64(r.FlexMin), r.Seed}
		if byKey[k] == nil {
			byKey[k] = map[core.Formulation]RelaxationRecord{}
		}
		byKey[k][r.Form] = r
	}
	for k, group := range byKey {
		d, s, c := group[core.Delta], group[core.Sigma], group[core.CSigma]
		if math.IsNaN(d.Bound) || math.IsNaN(s.Bound) || math.IsNaN(c.Bound) {
			t.Fatalf("%v: relaxation unsolved", k)
		}
		if s.Bound > d.Bound+1e-5 {
			t.Fatalf("%v: Σ bound %v exceeds Δ bound %v (Σ must dominate)", k, s.Bound, d.Bound)
		}
		if !math.IsNaN(c.Exact) {
			for _, r := range []RelaxationRecord{d, s, c} {
				if r.Bound < c.Exact-1e-5 {
					t.Fatalf("%v: %v relaxation %v below the integer optimum %v", k, r.Form, r.Bound, c.Exact)
				}
			}
		}
	}

	var buf bytes.Buffer
	WriteRelaxation(&buf, recs, cfg)
	if !strings.Contains(buf.String(), "Relaxation strength") {
		t.Fatal("report header missing")
	}
}
