package certify_test

import (
	"math"
	"reflect"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

type parityCase struct {
	name string
	inst *core.Instance
	sol  *solution.Solution
	opts certify.Options
	want []string
}

// parityCases are malformed and overloaded inputs on the tiny instance;
// want is the report the per-interval rescan certifier gave on each, so
// the shared Definition 2.1 walker must keep every violation's kind, order
// and detail string.
func parityCases(t *testing.T) []parityCase {
	access := certify.Options{Objective: core.AccessControl}
	var cs []parityCase
	add := func(name string, inst *core.Instance, sol *solution.Solution, opts certify.Options, want ...string) {
		cs = append(cs, parityCase{name, inst, sol, opts, want})
	}

	inst, _, _ := tinyInstance(t, 10, 10, 1)
	add("nil-solution", inst, nil, access,
		"shape: nil solution")

	inst, sol, _ := tinyInstance(t, 10, 10, 2)
	sol.End = sol.End[:1]
	add("slice-lengths", inst, sol, access,
		"shape: slice lengths (2,2,1) do not match 2 requests")

	// Three requests staggered by half a unit on a node and link that hold
	// one of them: every overlap overloads both.
	inst, sol, _ = tinyInstance(t, 1.5, 1.5, 3)
	for r := range sol.Start {
		sol.Start[r], sol.End[r] = 0.5*float64(r), 0.5*float64(r)+1
	}
	add("staggered-overloads", inst, sol, access,
		"node-capacity: t=0.75: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=0.75: substrate node 1 loaded 2 > capacity 1.5",
		"link-capacity: t=0.75: substrate link 0 loaded 2 > capacity 1.5",
		"node-capacity: t=1.25: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=1.25: substrate node 1 loaded 2 > capacity 1.5",
		"link-capacity: t=1.25: substrate link 0 loaded 2 > capacity 1.5")

	// Request 1 loses a host and carries no load; request 2's flow vector
	// is cut short, so it loads its nodes but no link.
	inst, sol, e01 := tinyInstance(t, 1.5, 1.5, 4)
	sol.Hosts[1] = sol.Hosts[1][:1]
	sol.Flows[2][0] = sol.Flows[2][0][:e01]
	sol.Start[3], sol.End[3] = 0.25, 1.25
	add("shape-defects-skip-load", inst, sol, access,
		"shape[req 1]: missing host assignment",
		"shape[req 2]: virtual link 0: flow over 0 substrate links, want 2",
		"node-capacity: t=0.125: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=0.125: substrate node 1 loaded 2 > capacity 1.5",
		"node-capacity: t=0.625: substrate node 0 loaded 3 > capacity 1.5",
		"node-capacity: t=0.625: substrate node 1 loaded 3 > capacity 1.5",
		"link-capacity: t=0.625: substrate link 0 loaded 2 > capacity 1.5")

	// The flow slice stops before the last request: it is reported and
	// skipped by the sweep.
	inst, sol, _ = tinyInstance(t, 1.5, 10, 3)
	sol.Flows = sol.Flows[:2]
	add("flows-truncated", inst, sol, access,
		"shape[req 2]: missing flow assignment",
		"node-capacity: t=0.5: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=0.5: substrate node 1 loaded 2 > capacity 1.5")

	// Out-of-range hosts and flows, broken conservation, a wrong duration,
	// a window breach and a pinned-mapping mismatch, all at once.
	inst, sol, e01 = tinyInstance(t, 10, 10, 3)
	sol.Hosts[0][1] = 5
	sol.Flows[1][0][e01] = 1.25
	sol.Flows[1][0][1-e01] = -0.5
	sol.End[2] = 2.5
	sol.Hosts[2] = []int{1, 0}
	pinned := access
	pinned.Mapping = vnet.NodeMapping{nil, {0, 1}, {0, 1}}
	add("embedding-defects", inst, sol, pinned,
		"host-range[req 0]: virtual node 1 hosted on invalid substrate node 5",
		"flow-range[req 1]: virtual link 0: flow 1.25 on substrate link 0 outside [0,1]",
		"flow-range[req 1]: virtual link 0: flow -0.5 on substrate link 1 outside [0,1]",
		"flow-conservation[req 1]: virtual link 0: balance 1.75 at substrate node 0, want 1",
		"flow-conservation[req 1]: virtual link 0: balance -1.75 at substrate node 1, want -1",
		"duration[req 2]: scheduled duration 2.5 != d=1",
		"window[req 2]: ends at 2.5 after latest 2",
		"mapping-pinned[req 2]: virtual node 0 hosted on 1, pinned to 0",
		"mapping-pinned[req 2]: virtual node 1 hosted on 0, pinned to 1",
		"flow-conservation[req 2]: virtual link 0: balance 1 at substrate node 0, want -1",
		"flow-conservation[req 2]: virtual link 0: balance -1 at substrate node 1, want 1")

	// A NaN start passes the temporal checks and runs in every interval.
	inst, sol, _ = tinyInstance(t, 1.5, 10, 2)
	sol.Start[1], sol.End[1] = math.NaN(), 1.5
	sol.Start[0], sol.End[0] = 1, 2
	add("nan-start", inst, sol, access,
		"node-capacity: t=NaN: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=NaN: substrate node 1 loaded 2 > capacity 1.5",
		"node-capacity: t=1.25: substrate node 0 loaded 2 > capacity 1.5",
		"node-capacity: t=1.25: substrate node 1 loaded 2 > capacity 1.5")

	// Balanced-node counting reads the same sweep: two overlapping
	// requests push both nodes past half their capacity.
	inst, sol, _ = tinyInstance(t, 3, 10, 2)
	sol.Start[1], sol.End[1] = 0.5, 1.5
	sol.Objective = 2
	add("balance-node-load", inst, sol, certify.Options{Objective: core.BalanceNodeLoad},
		"objective-mismatch: reported 2 exceeds recomputed bound 0 (objective balance-node-load)")
	return cs
}

// TestSolutionParity pins certify.Solution's report on malformed and
// overloaded inputs: same kinds, same order, same detail strings.
func TestSolutionParity(t *testing.T) {
	for _, tc := range parityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, v := range certify.Solution(tc.inst, tc.sol, tc.opts).Violations {
				got = append(got, v.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("violations:\n  got  %q\n  want %q", got, tc.want)
			}
		})
	}
}
