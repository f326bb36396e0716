package round

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// rescanFirstViolation is the reference firstViolation must reproduce: for
// each event interval in time order, rescan every request at the midpoint,
// and on the first overbooked resource (nodes, then links) rescan again for
// the running requests that put demand on it.
func rescanFirstViolation(inst *core.Instance, sol *solution.Solution) (float64, []int, bool) {
	sub := inst.Sub
	var events []float64
	for r := range inst.Reqs {
		if sol.Accepted[r] {
			events = append(events, sol.Start[r], sol.End[r])
		}
	}
	sort.Float64s(events)
	runs := func(r int, t float64) bool {
		return sol.Accepted[r] && t > sol.Start[r] && t < sol.End[r]
	}
	for i := 0; i+1 < len(events); i++ {
		if events[i+1]-events[i] < numtol.EventCoincide {
			continue
		}
		t := (events[i] + events[i+1]) / 2
		nodeLoad := make([]float64, sub.NumNodes())
		linkLoad := make([]float64, sub.NumLinks())
		for r, req := range inst.Reqs {
			if !runs(r, t) {
				continue
			}
			for v, host := range sol.Hosts[r] {
				nodeLoad[host] += req.NodeDemand[v]
			}
			for lv := 0; lv < req.G.NumEdges(); lv++ {
				for ls, f := range sol.Flows[r][lv] {
					if f > numtol.FlowTol {
						linkLoad[ls] += req.LinkDemand[lv] * f
					}
				}
			}
		}
		for ns, load := range nodeLoad {
			if load > sub.NodeCap[ns]+numtol.CapTol {
				var out []int
				for r, req := range inst.Reqs {
					for v, host := range sol.Hosts[r] {
						if runs(r, t) && host == ns && req.NodeDemand[v] > 0 {
							out = append(out, r)
							break
						}
					}
				}
				return events[i+1], out, true
			}
		}
		for ls, load := range linkLoad {
			if load > sub.LinkCap[ls]+numtol.CapTol {
				var out []int
				for r, req := range inst.Reqs {
					for lv := 0; lv < req.G.NumEdges(); lv++ {
						if runs(r, t) && sol.Flows[r][lv][ls] > numtol.FlowTol && req.LinkDemand[lv] > 0 {
							out = append(out, r)
							break
						}
					}
				}
				return events[i+1], out, true
			}
		}
	}
	return 0, nil, false
}

// TestFirstViolationMatchesRescan checks firstViolation against the
// rescan on random candidate schedules over tight capacities: same
// interval end, same contributors.
func TestFirstViolationMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fractions := []float64{0, 0, 1, 0.5, 0.25, 1e-6, 2e-5}
	found := 0
	for trial := 0; trial < 2000; trial++ {
		sub := substrate.Grid(1+rng.Intn(2), 2+rng.Intn(2), 1+rng.Float64()*3, 1+rng.Float64()*3)
		k := 1 + rng.Intn(8)
		inst := &core.Instance{Sub: sub}
		sol := &solution.Solution{
			Accepted: make([]bool, k),
			Start:    make([]float64, k),
			End:      make([]float64, k),
			Hosts:    make([][]int, k),
			Flows:    make([][][]float64, k),
		}
		for r := 0; r < k; r++ {
			req := vnet.Chain("r", 1+rng.Intn(3), 1, 1)
			for v := range req.NodeDemand {
				req.NodeDemand[v] = float64(rng.Intn(3)) * 0.75
			}
			for lv := range req.LinkDemand {
				req.LinkDemand[lv] = float64(rng.Intn(3)) * 0.75
			}
			inst.Reqs = append(inst.Reqs, req)
			sol.Accepted[r] = rng.Intn(5) > 0
			sol.Start[r] = float64(rng.Intn(8)) * 0.5
			sol.End[r] = sol.Start[r] + float64(1+rng.Intn(6))*0.5
			sol.Hosts[r] = make([]int, req.G.N)
			for v := range sol.Hosts[r] {
				sol.Hosts[r][v] = rng.Intn(sub.NumNodes())
			}
			sol.Flows[r] = make([][]float64, req.G.NumEdges())
			for lv := range sol.Flows[r] {
				sol.Flows[r][lv] = make([]float64, sub.NumLinks())
				for ls := range sol.Flows[r][lv] {
					sol.Flows[r][lv][ls] = fractions[rng.Intn(len(fractions))]
				}
			}
		}
		gotEnd, gotContribs, gotFound := firstViolation(inst, sol)
		wantEnd, wantContribs, wantFound := rescanFirstViolation(inst, sol)
		if gotFound != wantFound || gotEnd != wantEnd || !reflect.DeepEqual(gotContribs, wantContribs) {
			t.Fatalf("trial %d: firstViolation = (%v, %v, %v), rescan = (%v, %v, %v)",
				trial, gotEnd, gotContribs, gotFound, wantEnd, wantContribs, wantFound)
		}
		if wantFound {
			found++
		}
	}
	if found < 500 {
		t.Fatalf("only %d of 2000 schedules overload a resource; the test lost its teeth", found)
	}
}

// TestRepairDefersContributor pins which contributor repairSample defers:
// two unit-demand requests overlap on one unit-capacity node, and the
// repair must resolve the overlap with the deferral the rows name.
func TestRepairDefersContributor(t *testing.T) {
	type req struct{ earliest, latest, start float64 }
	for _, tc := range []struct {
		name      string
		reqs      [2]req
		wantStart [2]float64
	}{
		// r1 has more room left: it is deferred to r0's end.
		{"most room", [2]req{{0, 4, 0}, {1, 6, 1}}, [2]float64{0, 2}},
		// Equal room: r1 started later, so its start made the overlap and
		// it is deferred; deferring r0 would overlap r1 again.
		{"room tie defers the later start", [2]req{{0, 4, 0}, {1, 5, 1}}, [2]float64{0, 2}},
		// Equal room and equal start: the lowest index is deferred.
		{"full tie defers the lowest index", [2]req{{0, 4, 0}, {0, 4, 0}}, [2]float64{2, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := &core.Instance{Sub: substrate.Grid(1, 2, 1, 1)}
			sol := &solution.Solution{}
			for _, q := range tc.reqs {
				r := vnet.Chain("r", 1, 1, 0)
				r.Earliest, r.Latest, r.Duration = q.earliest, q.latest, 2
				inst.Reqs = append(inst.Reqs, r)
				sol.Accepted = append(sol.Accepted, true)
				sol.Start = append(sol.Start, q.start)
				sol.End = append(sol.End, q.start+r.Duration)
				sol.Hosts = append(sol.Hosts, []int{0})
				sol.Flows = append(sol.Flows, [][]float64{})
			}
			repairs, rejections, ok := repairSample(inst, sol, core.AccessControl)
			if !ok || repairs != 1 || rejections != 0 {
				t.Fatalf("repairSample = (%d repairs, %d rejections, ok=%v), want one deferral", repairs, rejections, ok)
			}
			if got := [2]float64{sol.Start[0], sol.Start[1]}; got != tc.wantStart {
				t.Fatalf("starts %v after repair, want %v", got, tc.wantStart)
			}
		})
	}
}
