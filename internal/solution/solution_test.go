package solution

import (
	"errors"
	"strings"
	"testing"

	"tvnep/internal/graph"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// fixture: 1×2 substrate, one two-node request hosted on nodes 0 and 1 with
// a unit flow on the direct link.
func fixture() (*substrate.Network, []*vnet.Request, *Solution) {
	sub := substrate.Grid(1, 2, 2, 2)
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	req := &vnet.Request{
		Name: "a", G: g,
		NodeDemand: []float64{1, 1},
		LinkDemand: []float64{1},
		Earliest:   0, Duration: 2, Latest: 4,
	}
	// Find the substrate edge 0→1.
	var e01 int
	for e := 0; e < sub.NumLinks(); e++ {
		if u, v := sub.G.Edge(e); u == 0 && v == 1 {
			e01 = e
		}
	}
	flows := make([]float64, sub.NumLinks())
	flows[e01] = 1
	sol := &Solution{
		Accepted: []bool{true},
		Start:    []float64{0},
		End:      []float64{2},
		Hosts:    [][]int{{0, 1}},
		Flows:    [][][]float64{{flows}},
	}
	return sub, []*vnet.Request{req}, sol
}

func TestCheckAcceptsValid(t *testing.T) {
	sub, reqs, sol := fixture()
	if err := Check(sub, reqs, sol); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsWrongDuration(t *testing.T) {
	sub, reqs, sol := fixture()
	sol.End[0] = 3
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("err = %v, want duration violation", err)
	}
}

func TestCheckRejectsEarlyStart(t *testing.T) {
	sub, reqs, sol := fixture()
	reqs[0].Earliest = 1
	reqs[0].Latest = 5
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "earliest") {
		t.Fatalf("err = %v, want earliest violation", err)
	}
}

func TestCheckRejectsLateEnd(t *testing.T) {
	sub, reqs, sol := fixture()
	reqs[0].Latest = 1.5
	reqs[0].Earliest = -0.5
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "latest") {
		t.Fatalf("err = %v, want latest violation", err)
	}
}

func TestCheckRejectsBrokenFlow(t *testing.T) {
	sub, reqs, sol := fixture()
	for ls := range sol.Flows[0][0] {
		sol.Flows[0][0][ls] = 0 // no flow at all
	}
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "balance") {
		t.Fatalf("err = %v, want flow balance violation", err)
	}
}

func TestCheckRejectsFlowOutOfRange(t *testing.T) {
	sub, reqs, sol := fixture()
	sol.Flows[0][0][0] = 1.5
	if err := Check(sub, reqs, sol); err == nil {
		t.Fatal("flow 1.5 accepted")
	}
}

func TestCheckRejectsNodeOverload(t *testing.T) {
	sub, reqs, sol := fixture()
	sub.NodeCap[0] = 0.5 // demand 1 on host 0
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "node") {
		t.Fatalf("err = %v, want node overload", err)
	}
}

func TestCheckRejectsLinkOverload(t *testing.T) {
	sub, reqs, sol := fixture()
	for i := range sub.LinkCap {
		sub.LinkCap[i] = 0.5
	}
	if err := Check(sub, reqs, sol); err == nil || !strings.Contains(err.Error(), "link") {
		t.Fatalf("err = %v, want link overload", err)
	}
}

func TestCheckIgnoresRejectedRequests(t *testing.T) {
	sub, reqs, sol := fixture()
	sol.Accepted[0] = false
	sub.NodeCap[0] = 0 // would overload if accepted
	if err := Check(sub, reqs, sol); err != nil {
		t.Fatalf("rejected request still checked: %v", err)
	}
}

func TestCheckOpenIntervalBoundaries(t *testing.T) {
	// Two requests back to back on the same resources: end == start is
	// allowed by the open-interval condition of Definition 2.1.
	sub, reqs, sol := fixture()
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	req2 := &vnet.Request{
		Name: "b", G: g,
		NodeDemand: []float64{2, 2}, // full node capacity
		LinkDemand: []float64{2},    // full link capacity
		Earliest:   2, Duration: 2, Latest: 4,
	}
	reqs = append(reqs, req2)
	reqs[0].NodeDemand = []float64{2, 2}
	reqs[0].LinkDemand = []float64{2}
	flows2 := append([]float64(nil), sol.Flows[0][0]...)
	sol.Accepted = append(sol.Accepted, true)
	sol.Start = append(sol.Start, 2)
	sol.End = append(sol.End, 4)
	sol.Hosts = append(sol.Hosts, []int{0, 1})
	sol.Flows = append(sol.Flows, [][]float64{flows2})
	if err := Check(sub, reqs, sol); err != nil {
		t.Fatalf("back-to-back schedules rejected: %v", err)
	}
	// But actual overlap must fail.
	sol.Start[1] = 1.5
	sol.End[1] = 3.5
	if err := Check(sub, reqs, sol); err == nil {
		t.Fatal("overlapping full-capacity schedules accepted")
	}
}

func TestCheckColocatedVirtualNodes(t *testing.T) {
	// Both virtual nodes on the same host: zero flow is a valid embedding
	// of the virtual link.
	sub, reqs, sol := fixture()
	sol.Hosts[0] = []int{0, 0}
	for ls := range sol.Flows[0][0] {
		sol.Flows[0][0][ls] = 0
	}
	if err := Check(sub, reqs, sol); err != nil {
		t.Fatalf("colocated embedding rejected: %v", err)
	}
}

func TestCheckLengthMismatch(t *testing.T) {
	sub, reqs, sol := fixture()
	sol.Accepted = nil
	if err := Check(sub, reqs, sol); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestCheckRejectsMalformed feeds malformed solutions through Check: each
// must come back as the named Violation, never as a panic.
func TestCheckRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Solution) *Solution
		want   Kind
	}{
		{"nil-solution", func(*Solution) *Solution { return nil }, Shape},
		{"short-start", func(s *Solution) *Solution { s.Start = nil; return s }, Shape},
		{"missing-hosts", func(s *Solution) *Solution { s.Hosts = nil; return s }, Shape},
		{"short-hosts", func(s *Solution) *Solution { s.Hosts[0] = s.Hosts[0][:1]; return s }, Shape},
		{"host-out-of-range", func(s *Solution) *Solution { s.Hosts[0][1] = 7; return s }, HostRange},
		{"negative-host", func(s *Solution) *Solution { s.Hosts[0][0] = -1; return s }, HostRange},
		{"missing-flows", func(s *Solution) *Solution { s.Flows = nil; return s }, Shape},
		{"short-flow-vector", func(s *Solution) *Solution { s.Flows[0][0] = s.Flows[0][0][:1]; return s }, Shape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sub, reqs, sol := fixture()
			err := Check(sub, reqs, tc.mutate(sol))
			var v Violation
			if !errors.As(err, &v) || v.Kind != tc.want {
				t.Fatalf("err = %v, want a %s violation", err, tc.want)
			}
		})
	}
}

func TestNumAccepted(t *testing.T) {
	s := &Solution{Accepted: []bool{true, false, true}}
	if s.NumAccepted() != 2 {
		t.Fatalf("NumAccepted = %d", s.NumAccepted())
	}
}

func TestCheckSplitFlow(t *testing.T) {
	// A request on a 2×2 grid with hosts at opposite corners and a 50/50
	// split over the two shortest paths.
	sub := substrate.Grid(2, 2, 2, 2)
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	req := &vnet.Request{
		Name: "a", G: g,
		NodeDemand: []float64{1, 1},
		LinkDemand: []float64{1},
		Earliest:   0, Duration: 1, Latest: 1,
	}
	// Hosts: substrate nodes 0 and 3 (corners). Paths 0→1→3 and 0→2→3.
	edge := func(u, v int) int {
		for e := 0; e < sub.NumLinks(); e++ {
			if a, b := sub.G.Edge(e); a == u && b == v {
				return e
			}
		}
		panic("edge not found")
	}
	flows := make([]float64, sub.NumLinks())
	flows[edge(0, 1)] = 0.5
	flows[edge(1, 3)] = 0.5
	flows[edge(0, 2)] = 0.5
	flows[edge(2, 3)] = 0.5
	sol := &Solution{
		Accepted: []bool{true},
		Start:    []float64{0},
		End:      []float64{1},
		Hosts:    [][]int{{0, 3}},
		Flows:    [][][]float64{{flows}},
	}
	if err := Check(sub, []*vnet.Request{req}, sol); err != nil {
		t.Fatalf("split flow rejected: %v", err)
	}
}
