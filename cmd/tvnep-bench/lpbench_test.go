package main

import (
	"strings"
	"testing"
)

// TestCompareLP checks the -compare regression guard: any changed counter,
// rate, op count or warm-start total fails and names what changed; CPU time
// per op may rise by 30% and allocations or bytes per op by 10%.
func TestCompareLP(t *testing.T) {
	baseline := func() *lpBenchReport {
		return &lpBenchReport{
			Benchmarks: []lpBenchResult{
				{Name: "LazyCutCSigma", Ops: 64, CPUNsPerOp: 1e7, AllocsPerOp: 2400, BytesPerOp: 2e6,
					lpCounters: lpCounters{LPIters: 790, BBNodes: 83, CutRowsRoot: 220, CutPoolHits: 98}},
				{Name: "AdmissionStream", Ops: 10000, CPUNsPerOp: 9e5, AllocsPerOp: 180, BytesPerOp: 96000,
					lpCounters: lpCounters{LPIters: 54.037, AcceptRate: 0.8232}},
			},
			WarmStart: lpWarmStats{Attempts: 57995, OK: 57995, FactorHandoffs: 48130, BasisExtensions: 9865},
		}
	}
	for _, tc := range []struct {
		name string
		edit func(r *lpBenchReport)
		want []string // substrings of the one regression expected; nil for a pass
	}{
		{"identical", func(*lpBenchReport) {}, nil},
		{"cpu 29% up", func(r *lpBenchReport) { r.Benchmarks[0].CPUNsPerOp *= 1.29 }, nil},
		{"allocs and bytes down", func(r *lpBenchReport) {
			r.Benchmarks[1].AllocsPerOp *= 0.5
			r.Benchmarks[1].BytesPerOp *= 0.5
		}, nil},
		{"cpu 31% up", func(r *lpBenchReport) { r.Benchmarks[0].CPUNsPerOp *= 1.31 },
			[]string{"LazyCutCSigma", "cpu_ns_per_op"}},
		{"allocs 11% up", func(r *lpBenchReport) { r.Benchmarks[1].AllocsPerOp *= 1.11 },
			[]string{"AdmissionStream", "allocs_per_op"}},
		{"bytes 11% up", func(r *lpBenchReport) { r.Benchmarks[0].BytesPerOp *= 1.11 },
			[]string{"LazyCutCSigma", "bytes_per_op"}},
		{"counter changed", func(r *lpBenchReport) { r.Benchmarks[0].CutPoolHits = 97 },
			[]string{"LazyCutCSigma", "cut_pool_hits"}},
		{"counter appeared", func(r *lpBenchReport) { r.Benchmarks[1].BBNodes = 3.2607 },
			[]string{"AdmissionStream", "bb_nodes"}},
		{"rate changed", func(r *lpBenchReport) { r.Benchmarks[1].AcceptRate = 0.8231 },
			[]string{"AdmissionStream", "accept_rate"}},
		{"ops changed", func(r *lpBenchReport) { r.Benchmarks[1].Ops = 2000 },
			[]string{"AdmissionStream", "ops"}},
		{"entry missing", func(r *lpBenchReport) { r.Benchmarks = r.Benchmarks[:1] },
			[]string{"AdmissionStream", "missing"}},
		{"warm-start total changed", func(r *lpBenchReport) { r.WarmStart.Attempts++ },
			[]string{"warm_start", "57996"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := baseline()
			tc.edit(cur)
			regs := compareLP(cur, baseline())
			if tc.want == nil {
				if len(regs) != 0 {
					t.Fatalf("guard failed: %q", regs)
				}
				return
			}
			if len(regs) != 1 {
				t.Fatalf("got regressions %q, want one naming %q", regs, tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(regs[0], w) {
					t.Errorf("regression %q does not name %q", regs[0], w)
				}
			}
		})
	}
}
