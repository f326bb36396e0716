package main

// metricDef names one metric of the catalogue.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"ops_per_cpu_s", "1/cpu-s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_tail_ms", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"ok_frac", "ratio"},
	{"accept_rate", "ratio"},
}

// perLayer lists the metrics a --trace 1 run prints, on every workload. A
// layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"wall.ops_per_s", "1/s"},
	{"wall.op_p50_ms", "ms"},
	{"wall.op_tail_ms", "ms"},
	{"server.overhead_us_p50", "us"},
	{"server.client_self_us_p50", "us"},
	{"server.handler_self_us_p50", "us"},
	{"admit.latency_ms_p50.lp", "ms"},
	{"admit.latency_ms_p50.mip", "ms"},
	{"admit.tier_frac.precheck", "ratio"},
	{"admit.tier_frac.lp", "ratio"},
	{"admit.tier_frac.mip", "ratio"},
	{"admit.lp_iters_per_decision", "count"},
	{"admit.nodes_per_decision", "count"},
	{"admit.warm_rate", "ratio"},
	{"admit.basis_extended_frac", "ratio"},
	{"admit.active_set_mean", "count"},
	{"admit.node_limit_hits", "count"},
	{"admit.allocs_per_decision", "count"},
	{"admit.bytes_per_decision", "B"},
	{"certify.downgrades", "count"},
	{"core.build_ms", "ms"},
	{"core.cols", "count"},
	{"core.rows", "count"},
	{"lp.root_ms", "ms"},
	{"lp.iters_per_solve", "count"},
	{"lp.bound_flips_per_solve", "count"},
	{"lp.warm_ok_rate", "ratio"},
	{"lp.factor_handoff_rate", "ratio"},
	{"lp.basis_extensions", "count"},
	{"mip.search_ms", "ms"},
	{"mip.nodes_per_solve", "count"},
	{"mip.optimal_frac", "ratio"},
	{"mip.cut_rows_separated", "count"},
	{"mip.cut_pool_hit_frac", "ratio"},
	{"mip.cols_priced", "count"},
	{"mip.col_rounds", "count"},
	{"mip.col_pool_hits", "count"},
	{"round.solve_ms", "ms"},
	{"round.samples", "count"},
	{"round.feasible_frac", "ratio"},
	{"round.repairs", "count"},
	{"round.fallback_frac", "ratio"},
	{"round.gap", "ratio"},
	{"solution.check_ms", "ms"},
	{"certify.solution_ms", "ms"},
	{"certify.cuts_ms", "ms"},
	{"certify.columns_ms", "ms"},
	{"certify.lp_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"trace.overhead_frac", "ratio"},
}

// complete adds every catalogue metric the workload did not set, as 0, and
// reports the names it set that the catalogue lacks.
func (m *metricSet) complete(defs []metricDef) (unknown []string) {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		if _, ok := m.values[d.name]; !ok {
			m.set(d.name, 0, d.unit, "no work on this workload")
		}
	}
	for _, n := range m.names {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	return unknown
}
