// Package certify is the independent correctness gate of this repository:
// it re-verifies solver outputs against the original problem data, written
// deliberately against the problem statement (Definition 2.1 and the
// Section IV-E objectives) rather than against any MIP formulation, so a
// bug shared by a model builder and its extractor cannot hide from it.
//
// Solution re-checks a whole solution.Solution (windows, durations,
// splittable-flow conservation, node/link capacity at every event interval,
// pinned mappings, and a full objective recomputation). Extension checks
// one request added to a system that already passed Solution: the
// request's own Definition 2.1 checks, and capacity only in the event
// intervals the request runs over, which is where an addition can break
// it. It is what online admission runs per acceptance; Solution still
// judges every system as a whole wherever it is rewritten or handed out.
// LP (lpcert.go) re-checks an lp.Result against its lp.Problem (primal
// residuals, bound feasibility, dual feasibility and complementary
// slackness), and Cuts and Columns re-derive applied cuts and priced
// columns. Every failure is reported as a named Violation so tests and CI
// logs can assert on the exact defect class.
package certify

import (
	"fmt"
	"math"
	"strings"

	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// Kind names one class of certificate violation. The Definition 2.1
// classes live in package solution, whose walker Solution runs.
type Kind = solution.Kind

// Solution-certificate violation classes.
const (
	Shape            = solution.Shape
	Window           = solution.Window
	Duration         = solution.Duration
	HostRange        = solution.HostRange
	MappingPinned    = solution.MappingPinned
	FlowRange        = solution.FlowRange
	FlowConservation = solution.FlowConservation
	NodeCapacity     = solution.NodeCapacity
	LinkCapacity     = solution.LinkCapacity
	// Objective: the reported objective disagrees with the value recomputed
	// from the solution.
	Objective Kind = "objective-mismatch"
)

// Violation is one named certificate failure.
type Violation = solution.Violation

// Report collects every violation found by a certificate check.
type Report struct {
	Violations []Violation
	// RecomputedObjective is the objective value derived from the solution
	// data alone (meaningful for Solution reports).
	RecomputedObjective float64
}

// OK reports whether the certificate holds.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the certificate holds and an error naming every
// violation otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("certify: %d violation(s):\n  %s", len(r.Violations), strings.Join(msgs, "\n  "))
}

// Has reports whether the report contains a violation of the given kind.
func (r *Report) Has(k Kind) bool {
	for _, v := range r.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func (r *Report) addf(k Kind, req int, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Kind: k, Request: req, Detail: fmt.Sprintf(format, args...)})
}

// Options configures a Solution certificate.
type Options struct {
	// Objective selects which Section IV-E objective to recompute.
	Objective core.Objective
	// LoadFraction is f for BalanceNodeLoad; outside (0,1) the builders'
	// default of 0.5 applies.
	LoadFraction float64
	// Mapping, when non-nil, asserts that every accepted request uses
	// exactly the pinned virtual-node placement.
	Mapping vnet.NodeMapping
	// SkipObjective disables the objective recomputation (for solutions
	// produced under a custom objective, e.g. single greedy iterations).
	SkipObjective bool
}

func (o Options) loadFraction() float64 {
	if o.LoadFraction <= 0 || o.LoadFraction >= 1 {
		return 0.5
	}
	return o.LoadFraction
}

// Solution re-verifies sol against the instance and returns a report of
// every violation found (never stopping at the first, so a single run
// pins down all defects): the Definition 2.1 walk of solution.Violations,
// then the objective recomputation.
func Solution(inst *core.Instance, sol *solution.Solution, opts Options) *Report {
	rep := &Report{Violations: solution.Violations(inst.Sub, inst.Reqs, sol, opts.Mapping)}
	k := len(inst.Reqs)
	if sol == nil || len(sol.Accepted) != k || len(sol.Start) != k || len(sol.End) != k {
		return rep // the walk reported the shape violation alone
	}
	if !opts.SkipObjective {
		checkObjective(rep, inst, sol, opts)
	}
	return rep
}

// Extension certifies request x as an addition to a system that Solution
// already certified: x's window, duration, pinned mapping, flow range and
// flow conservation, then node and link capacity in the event intervals x
// runs over. It recomputes no objective.
//
// Precondition: the solution without x (x not accepted) has no Definition
// 2.1 violation, as Solution checks it. Outside x's intervals the other
// requests were judged when they were certified, and x's events only
// subdivide those intervals without changing who runs in them. Under the
// precondition the report lists exactly the violations Solution with
// SkipObjective would, computed from the requests whose schedules meet
// x's; inst and sol may hold only those, kept in index order (see
// solution.ExtensionViolations).
func Extension(inst *core.Instance, sol *solution.Solution, x int, mapping vnet.NodeMapping) *Report {
	return &Report{Violations: solution.ExtensionViolations(inst.Sub, inst.Reqs, sol, mapping, x)}
}

// checkObjective recomputes the selected Section IV-E objective from the
// solution data and compares it with the reported value. AccessControl and
// MaxEarliness admit an exact recomputation; the counting objectives
// (BalanceNodeLoad, DisableLinks) and MinMakespan are verified one-sidedly
// — a solver may under-claim on a non-optimal incumbent (loose counting
// binaries, slack makespan variable) but never over-claim.
func checkObjective(rep *Report, inst *core.Instance, sol *solution.Solution, opts Options) {
	var recomputed float64
	exact := true
	switch opts.Objective {
	case core.AccessControl:
		for r, req := range inst.Reqs {
			if sol.Accepted[r] {
				recomputed += req.Duration * req.TotalNodeDemand()
			}
		}
	case core.MaxEarliness:
		for r, req := range inst.Reqs {
			flex := req.Flexibility()
			if flex <= numtol.EventCoincide {
				recomputed += req.Duration
				continue
			}
			recomputed += req.Duration * (1 - (sol.Start[r]-req.Earliest)/flex)
		}
	case core.BalanceNodeLoad:
		recomputed = float64(countBalancedNodes(inst, sol, opts.loadFraction()))
		exact = false
	case core.DisableLinks:
		recomputed = float64(countDisabledLinks(inst, sol))
		exact = false
	case core.MinMakespan:
		makespan := 0.0
		for r := range inst.Reqs {
			if sol.End[r] > makespan {
				makespan = sol.End[r]
			}
		}
		recomputed = -makespan
		exact = false
	default:
		rep.addf(Objective, -1, "unknown objective %d", int(opts.Objective))
		return
	}
	rep.RecomputedObjective = recomputed
	diff := sol.Objective - recomputed
	scale := 1 + math.Abs(recomputed)
	if exact {
		if math.Abs(diff) > numtol.ObjTol*scale {
			rep.addf(Objective, -1, "reported %v, recomputed %v (objective %v)", sol.Objective, recomputed, opts.Objective)
		}
	} else if diff > numtol.ObjTol*scale {
		rep.addf(Objective, -1, "reported %v exceeds recomputed bound %v (objective %v)", sol.Objective, recomputed, opts.Objective)
	}
}

// countBalancedNodes counts substrate nodes whose load stays within
// fraction f of capacity in every event interval.
func countBalancedNodes(inst *core.Instance, sol *solution.Solution, f float64) int {
	sub := inst.Sub
	ok := make([]bool, sub.NumNodes())
	for i := range ok {
		ok[i] = true
	}
	solution.Sweep(sub, inst.Reqs, sol, func(iv *solution.Interval) bool {
		for ns, load := range iv.NodeLoad {
			if load > f*sub.NodeCap[ns]+numtol.CapTol {
				ok[ns] = false
			}
		}
		return true
	})
	n := 0
	for _, b := range ok {
		if b {
			n++
		}
	}
	return n
}

// countDisabledLinks counts substrate links carrying no flow from any
// accepted request.
func countDisabledLinks(inst *core.Instance, sol *solution.Solution) int {
	sub := inst.Sub
	used := make([]float64, sub.NumLinks())
	for r, req := range inst.Reqs {
		if !sol.Accepted[r] || len(sol.Flows) <= r {
			continue
		}
		for lv := 0; lv < req.G.NumEdges() && lv < len(sol.Flows[r]); lv++ {
			for ls, f := range sol.Flows[r][lv] {
				if ls < sub.NumLinks() {
					used[ls] += f
				}
			}
		}
	}
	n := 0
	for _, u := range used {
		if u <= numtol.FlowTol {
			n++
		}
	}
	return n
}
