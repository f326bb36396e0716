package main

import (
	"testing"

	"tvnep/internal/eval"
	"tvnep/internal/model"
)

// TestTotals pins how the aggregate line sums records: every record is one
// solve, a trace counts its model-backed decisions, and certificates count
// runs and failures alike.
func TestTotals(t *testing.T) {
	var tot totals
	tot.add(
		eval.Record{Optimal: true, Work: model.Work{Nodes: 3, LPIterations: 10, BoundFlips: 1, RatioPasses: 2}, Certified: true},
		eval.Record{Cancelled: true, CertFailed: true, Cuts: model.CutStats{Offered: 2, PoolHits: 1}},
	)
	tot.addStream(eval.StreamRecord{Precheck: 4, MIPTier: 3, Accepted: 2, CertFailures: 1, Work: model.Work{Nodes: 4, LPIterations: 5}}, true)
	want := "solves=5 optimal=1 cancelled=1 nodes=7 lp_iters=15 bound_flips=1 ratio_passes=2" +
		" certified=5 certify_failed=2" +
		" cut_rows_root=0 cut_rows_separated=0 cut_rounds=0 cut_offered=2 cut_pool_hits=1"
	if got := tot.String(); got != want {
		t.Fatalf("aggregate line\n got %s\nwant %s", got, want)
	}
	if tot.certifyFailed != 2 {
		t.Fatalf("certifyFailed = %d, want 2", tot.certifyFailed)
	}
}
