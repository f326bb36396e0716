// Package solution defines the output format of every TVNEP solver in this
// repository and an independent feasibility checker that verifies
// Definition 2.1 directly by an event sweep — deliberately written against
// the problem statement rather than any of the MIP formulations, so model
// bugs cannot hide from it.
package solution

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// Solution is a (candidate) solution to a TVNEP instance.
type Solution struct {
	// Accepted[r] reports whether request r is embedded (x_R).
	Accepted []bool
	// Start[r], End[r] are t⁺_R and t⁻_R. Definition 2.1 fixes them for
	// every request, accepted or not.
	Start, End []float64
	// Hosts[r][v] is the substrate node hosting virtual node v of request r
	// (meaningful when accepted).
	Hosts [][]int
	// Flows[r][lv][ls] is the fraction of virtual link lv of request r
	// routed over substrate link ls (splittable flows, x_E ∈ [0,1]).
	Flows [][][]float64

	// Solver metadata.
	Objective float64
	Bound     float64
	Gap       float64
	Optimal   bool
	Nodes     int
	Runtime   time.Duration

	// Warnings collects non-fatal consistency notes produced while the
	// solution was extracted from a solver (e.g. a model time variable
	// disagreeing with the duration-derived schedule beyond tolerance).
	Warnings []string
}

// NumAccepted counts embedded requests.
func (s *Solution) NumAccepted() int {
	n := 0
	for _, a := range s.Accepted {
		if a {
			n++
		}
	}
	return n
}

// Kind names one class of Definition 2.1 violation.
type Kind string

// Violation classes reported by Violations.
const (
	// Shape: solution slices do not match the instance dimensions.
	Shape Kind = "shape"
	// Window: a request is scheduled outside [t^s, t^e].
	Window Kind = "window"
	// Duration: end − start differs from the request duration.
	Duration Kind = "duration"
	// HostRange: a virtual node is hosted on a nonexistent substrate node.
	HostRange Kind = "host-range"
	// MappingPinned: a host differs from the a-priori fixed node mapping.
	MappingPinned Kind = "mapping-pinned"
	// FlowRange: a splittable-flow fraction lies outside [0,1].
	FlowRange Kind = "flow-range"
	// FlowConservation: a virtual link's flow does not ship one unit from
	// its source host to its destination host.
	FlowConservation Kind = "flow-conservation"
	// NodeCapacity: a substrate node is overbooked in some event interval.
	NodeCapacity Kind = "node-capacity"
	// LinkCapacity: a substrate link is overbooked in some event interval.
	LinkCapacity Kind = "link-capacity"
)

// Violation is one named feasibility failure. It is also the error Check
// returns.
type Violation struct {
	Kind    Kind
	Request int // request index, or -1 when instance-scoped
	Detail  string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Request >= 0 {
		return fmt.Sprintf("%s[req %d]: %s", v.Kind, v.Request, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Kind, v.Detail)
}

// Error implements error.
func (v Violation) Error() string { return v.String() }

// Check verifies the solution against Definition 2.1: temporal windows,
// durations, per-virtual-link unit flows, and node/link capacities at every
// point in time. It returns nil iff the solution is feasible, and otherwise
// the first Violation found.
func Check(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) error {
	if vs := Violations(sub, reqs, sol, nil); len(vs) > 0 {
		return vs[0]
	}
	return nil
}

// Violations walks sol against Definition 2.1 and returns every violation
// found, never stopping at the first: per request in index order its
// temporal and embedding defects, then the capacity overloads of each
// event interval in time order (nodes before links). mapping, when
// non-nil, additionally pins every accepted request's virtual-node
// placement. A malformed solution is reported, never panicked on.
func Violations(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, mapping vnet.NodeMapping) []Violation {
	return walk(sub, reqs, sol, mapping, false, 0)
}

// ExtensionViolations returns the violations that adding request x to an
// already feasible solution brings in: x's own temporal and embedding
// defects, then the capacity overloads of the event intervals x runs over,
// in the order and with the text Violations gives them.
//
// Precondition: sol without x (x not accepted) passes Violations, every
// time is finite and every demand nonnegative. Then the result equals
// Violations(sub, reqs, sol, mapping): x's events only subdivide the
// intervals where x does not run, which leaves who runs in them, and so
// their loads, as they were judged. Requests whose schedules do not meet
// [Start[x], End[x]] may be left out of reqs and sol: every event inside
// x's run stays, and keeping the rest in index order keeps every load and
// message bit-identical.
func ExtensionViolations(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, mapping vnet.NodeMapping, x int) []Violation {
	return walk(sub, reqs, sol, mapping, true, x)
}

// walk is Violations, restricted when ext is set to request x: its own
// checks and the capacity of the intervals it runs over.
func walk(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, mapping vnet.NodeMapping, ext bool, x int) []Violation {
	var vs []Violation
	add := func(k Kind, r int, format string, args ...interface{}) {
		vs = append(vs, Violation{Kind: k, Request: r, Detail: fmt.Sprintf(format, args...)})
	}
	k := len(reqs)
	if sol == nil {
		add(Shape, -1, "nil solution")
		return vs
	}
	if len(sol.Accepted) != k || len(sol.Start) != k || len(sol.End) != k {
		add(Shape, -1, "slice lengths (%d,%d,%d) do not match %d requests",
			len(sol.Accepted), len(sol.Start), len(sol.End), k)
		return vs
	}
	switch {
	case !ext:
		for r, req := range reqs {
			checkRequest(add, sub, req, sol, r, mapping)
		}
	case x < 0 || x >= k:
		add(Shape, -1, "request %d out of range of %d requests", x, k)
		return vs
	default:
		checkRequest(add, sub, reqs[x], sol, x, mapping)
	}
	Sweep(sub, reqs, sol, func(iv *Interval) bool {
		if ext {
			if at := sort.SearchInts(iv.Active, x); at == len(iv.Active) || iv.Active[at] != x {
				return true
			}
		}
		for ns, load := range iv.NodeLoad {
			if load > sub.NodeCap[ns]+numtol.CapTol {
				add(NodeCapacity, -1, "t=%v: substrate node %d loaded %v > capacity %v", iv.Mid, ns, load, sub.NodeCap[ns])
			}
		}
		for ls, load := range iv.LinkLoad {
			if load > sub.LinkCap[ls]+numtol.CapTol {
				add(LinkCapacity, -1, "t=%v: substrate link %d loaded %v > capacity %v", iv.Mid, ls, load, sub.LinkCap[ls])
			}
		}
		return true
	})
	return vs
}

// checkRequest reports the temporal defects of request r and, when it is
// accepted, its embedding defects.
func checkRequest(add func(Kind, int, string, ...interface{}), sub *substrate.Network, req *vnet.Request, sol *Solution, r int, mapping vnet.NodeMapping) {
	st, en := sol.Start[r], sol.End[r]
	if math.Abs((en-st)-req.Duration) > numtol.TimeTol {
		add(Duration, r, "scheduled duration %v != d=%v", en-st, req.Duration)
	}
	if st < req.Earliest-numtol.TimeTol {
		add(Window, r, "starts at %v before earliest %v", st, req.Earliest)
	}
	if en > req.Latest+numtol.TimeTol {
		add(Window, r, "ends at %v after latest %v", en, req.Latest)
	}
	if sol.Accepted[r] {
		checkEmbedding(add, sub, req, sol, r, mapping)
	}
}

// checkEmbedding reports the host, pinned-mapping and flow defects of the
// accepted request r. A shape defect ends the request's walk, since the
// checks after it would index out of range.
func checkEmbedding(add func(Kind, int, string, ...interface{}), sub *substrate.Network, req *vnet.Request, sol *Solution, r int, mapping vnet.NodeMapping) {
	if len(sol.Hosts) <= r || len(sol.Hosts[r]) != req.G.N {
		add(Shape, r, "missing host assignment")
		return
	}
	for v, host := range sol.Hosts[r] {
		if host < 0 || host >= sub.NumNodes() {
			add(HostRange, r, "virtual node %d hosted on invalid substrate node %d", v, host)
			return
		}
		if mapping != nil && r < len(mapping) && mapping[r] != nil && mapping[r][v] != host {
			add(MappingPinned, r, "virtual node %d hosted on %d, pinned to %d", v, host, mapping[r][v])
		}
	}
	if len(sol.Flows) <= r || len(sol.Flows[r]) != req.G.NumEdges() {
		add(Shape, r, "missing flow assignment")
		return
	}
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		u, v := req.G.Edge(lv)
		flow := sol.Flows[r][lv]
		if len(flow) != sub.NumLinks() {
			add(Shape, r, "virtual link %d: flow over %d substrate links, want %d", lv, len(flow), sub.NumLinks())
			return
		}
		for ls, f := range flow {
			if f < -numtol.FlowTol || f > 1+numtol.FlowTol {
				add(FlowRange, r, "virtual link %d: flow %v on substrate link %d outside [0,1]", lv, f, ls)
			}
		}
		src, dst := sol.Hosts[r][u], sol.Hosts[r][v]
		for ns := 0; ns < sub.NumNodes(); ns++ {
			bal := 0.0
			for _, e := range sub.G.Out(ns) {
				bal += flow[e]
			}
			for _, e := range sub.G.In(ns) {
				bal -= flow[e]
			}
			want := 0.0
			if ns == src {
				want++
			}
			if ns == dst {
				want--
			}
			if math.Abs(bal-want) > numtol.FlowTol {
				add(FlowConservation, r, "virtual link %d: balance %v at substrate node %d, want %v", lv, bal, ns, want)
			}
		}
	}
}
