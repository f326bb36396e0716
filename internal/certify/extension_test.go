package certify_test

import (
	"reflect"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// TestExtension holds the extension certificate of the last request to the
// whole-system certificate on hand-made additions to a committed system of
// unit-duration chain requests (tinyInstance, node and link capacity 1.5,
// so any two running together overload both nodes and the 0→1 link).
func TestExtension(t *testing.T) {
	// dustEnd is the committed end of the touching cases; the arriving
	// request starts a sliver before it.
	const dustEnd = 236.46321310550377
	testdata := []struct {
		name string
		// starts are the schedules [start, start+1] of the committed
		// requests followed by the arriving one; each window is its
		// schedule.
		starts []float64
		// mutate corrupts the arriving request x, with mapping pinning
		// nothing until it does.
		mutate func(inst *core.Instance, sol *solution.Solution, mapping vnet.NodeMapping, x, e01 int)
		// want are the extension certificate's violation kinds, in order.
		want []certify.Kind
		// whole, when set, are the whole-system certificate's kinds: the
		// committed system breaks the precondition, so the two differ.
		// Unset, the two reports must be identical.
		whole []certify.Kind
	}{
		{name: "disjoint", starts: []float64{0, 2}},
		{
			// The arriving request starts 1.65e-12 h before the committed
			// one ends: the sliver is an event interval, and both run in it.
			name:   "touching-dust",
			starts: []float64{dustEnd - 1, dustEnd - 1.65e-12},
			want:   []certify.Kind{certify.NodeCapacity, certify.NodeCapacity, certify.LinkCapacity},
		},
		{
			// A sliver below numtol.EventCoincide is no interval.
			name:   "gap-below-event-coincide",
			starts: []float64{dustEnd - 1, dustEnd - numtol.EventCoincide/2},
		},
		{
			name:   "overlap",
			starts: []float64{0, 0.5},
			want:   []certify.Kind{certify.NodeCapacity, certify.NodeCapacity, certify.LinkCapacity},
		},
		{
			// Two committed requests overload each other away from the
			// arriving one: only the whole certificate judges them.
			name:   "committed-overload-outside",
			starts: []float64{0, 0, 2},
			whole:  []certify.Kind{certify.NodeCapacity, certify.NodeCapacity, certify.LinkCapacity},
		},
		{
			name:   "window-early",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, _ int) {
				inst.Reqs[x].Earliest, inst.Reqs[x].Latest = 2.5, 3.5
			},
			want: []certify.Kind{certify.Window},
		},
		{
			name:   "window-late",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, _ int) {
				inst.Reqs[x].Earliest, inst.Reqs[x].Latest = 1.5, 2.5
			},
			want: []certify.Kind{certify.Window},
		},
		{
			name:   "duration",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, _ int) {
				sol.End[x] = 2.7
			},
			want: []certify.Kind{certify.Duration},
		},
		{
			name:   "mapping-pinned",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, mapping vnet.NodeMapping, x, _ int) {
				mapping[x] = []int{1, 0}
			},
			want: []certify.Kind{certify.MappingPinned, certify.MappingPinned},
		},
		{
			name:   "host-range",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, _ int) {
				sol.Hosts[x][1] = 9
			},
			want: []certify.Kind{certify.HostRange},
		},
		{
			name:   "flow-range",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, e01 int) {
				sol.Flows[x][0][e01] = 1.4
			},
			want: []certify.Kind{certify.FlowRange, certify.FlowConservation, certify.FlowConservation},
		},
		{
			name:   "flow-conservation",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, e01 int) {
				sol.Flows[x][0][e01] = 0.25
			},
			want: []certify.Kind{certify.FlowConservation, certify.FlowConservation},
		},
		{
			name:   "shape",
			starts: []float64{0, 2},
			mutate: func(inst *core.Instance, sol *solution.Solution, _ vnet.NodeMapping, x, _ int) {
				sol.Hosts[x] = nil
			},
			want: []certify.Kind{certify.Shape},
		},
	}

	for _, testd := range testdata {
		t.Run(testd.name, func(t *testing.T) {
			inst, sol, e01 := tinyInstance(t, 1.5, 1.5, len(testd.starts))
			for r, s := range testd.starts {
				inst.Reqs[r].Earliest, inst.Reqs[r].Latest = s, s+1
				sol.Start[r], sol.End[r] = s, s+1
			}
			x := len(testd.starts) - 1
			mapping := make(vnet.NodeMapping, len(testd.starts))
			if testd.mutate != nil {
				testd.mutate(inst, sol, mapping, x, e01)
			}

			ext := certify.Extension(inst, sol, x, mapping)
			whole := certify.Solution(inst, sol, certify.Options{SkipObjective: true, Mapping: mapping})
			if got := kinds(ext); !reflect.DeepEqual(got, testd.want) {
				t.Fatalf("extension kinds %v, want %v: %v", got, testd.want, ext.Violations)
			}
			if testd.whole == nil {
				if !reflect.DeepEqual(ext.Violations, whole.Violations) {
					t.Fatalf("extension report\n  %v\nwhole-system report\n  %v", ext.Violations, whole.Violations)
				}
			} else if got := kinds(whole); !reflect.DeepEqual(got, testd.whole) {
				t.Fatalf("whole-system kinds %v, want %v: %v", got, testd.whole, whole.Violations)
			}

			// The committed requests that cannot meet x may be left out:
			// the report keeps its violations and text.
			var keep []int
			for r := range testd.starts {
				if r == x || (sol.End[r] > sol.Start[x]-numtol.EventCoincide && sol.Start[r] < sol.End[x]+numtol.EventCoincide) {
					keep = append(keep, r)
				}
			}
			sub := &core.Instance{Sub: inst.Sub, Horizon: inst.Horizon}
			subSol := &solution.Solution{}
			var subMap vnet.NodeMapping
			for _, r := range keep {
				sub.Reqs = append(sub.Reqs, inst.Reqs[r])
				subMap = append(subMap, mapping[r])
				subSol.Accepted = append(subSol.Accepted, true)
				subSol.Start = append(subSol.Start, sol.Start[r])
				subSol.End = append(subSol.End, sol.End[r])
				subSol.Hosts = append(subSol.Hosts, sol.Hosts[r])
				subSol.Flows = append(subSol.Flows, sol.Flows[r])
			}
			restricted := certify.Extension(sub, subSol, len(keep)-1, subMap)
			if got, want := details(restricted), details(ext); !reflect.DeepEqual(got, want) {
				t.Fatalf("over the overlapping requests only:\n  %q\nover all:\n  %q", got, want)
			}
		})
	}

	t.Run("out-of-range", func(t *testing.T) {
		inst, sol, _ := tinyInstance(t, 1.5, 1.5, 1)
		for _, x := range []int{-1, 1} {
			if got := kinds(certify.Extension(inst, sol, x, nil)); !reflect.DeepEqual(got, []certify.Kind{certify.Shape}) {
				t.Errorf("request %d: kinds %v, want [shape]", x, got)
			}
		}
	})
}

// kinds lists a report's violation kinds in order (nil when clean).
func kinds(rep *certify.Report) []certify.Kind {
	var out []certify.Kind
	for _, v := range rep.Violations {
		out = append(out, v.Kind)
	}
	return out
}

// details lists a report's violations without their request indices, which
// number the certified instance.
func details(rep *certify.Report) []string {
	var out []string
	for _, v := range rep.Violations {
		out = append(out, string(v.Kind)+": "+v.Detail)
	}
	return out
}
