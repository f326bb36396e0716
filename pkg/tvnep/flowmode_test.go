package tvnep_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"tvnep/pkg/tvnep"
)

// TestFlowModeFacade solves the same scenario through the facade in both
// flow modes with full certification and requires the same certified
// optimum; the path run additionally carries a (possibly trivially passing)
// column certificate.
func TestFlowModeFacade(t *testing.T) {
	sc := scenario(t, 4, 7)
	solve := func(m tvnep.FlowMode) *tvnep.Result {
		solver, err := tvnep.New(sc.Substrate,
			tvnep.WithFlowMode(m),
			tvnep.WithCertify(),
			tvnep.WithHorizon(sc.Horizon),
		)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
		if err != nil {
			t.Fatalf("Solve(%v): %v", m, err)
		}
		if res.Status != tvnep.StatusOptimal {
			t.Fatalf("Solve(%v): status %v", m, res.Status)
		}
		return res
	}
	arc := solve(tvnep.FlowArc)
	path := solve(tvnep.FlowPath)
	if math.Abs(arc.Solution.Objective-path.Solution.Objective) > 1e-6*(1+math.Abs(arc.Solution.Objective)) {
		t.Fatalf("arc optimum %v != path optimum %v", arc.Solution.Objective, path.Solution.Objective)
	}
	if path.Certificate == nil || path.Certificate.Columns == nil {
		t.Fatalf("path solve missing the column certificate: %+v", path.Certificate)
	}
	if !path.Certificate.Columns.OK() {
		t.Fatalf("column certificate failed: %v", path.Certificate.Columns.Err())
	}
	if path.ModelStats.Vars >= arc.ModelStats.Vars {
		t.Fatalf("path build has %d variables, arc %d — path mode must compress the model",
			path.ModelStats.Vars, arc.ModelStats.Vars)
	}
}

// TestFlowModeConflicts pins the typed-error contract for the formulations
// path mode does not support, and the combinations it does (the algorithms
// and online admission whose flows it does not shape; TestOptionsCompose
// checks their answers).
func TestFlowModeConflicts(t *testing.T) {
	sub := tvnep.Grid(2, 2, 1, 1)
	cases := []struct {
		name string
		opts []tvnep.Option
	}{
		{"delta", []tvnep.Option{tvnep.WithFormulation(tvnep.Delta), tvnep.WithFlowMode(tvnep.FlowPath)}},
		{"sigma", []tvnep.Option{tvnep.WithFormulation(tvnep.Sigma), tvnep.WithFlowMode(tvnep.FlowPath)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tvnep.New(sub, tc.opts...)
			var conflict *tvnep.OptionConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("want *OptionConflictError, got %v", err)
			}
			if !strings.Contains(conflict.Option, "WithFlowMode") {
				t.Errorf("Option = %q, want a WithFlowMode conflict", conflict.Option)
			}
		})
	}

	// Online admission under path mode decides on arc flows.
	solver, err := tvnep.New(sub, tvnep.WithFlowMode(tvnep.FlowPath), tvnep.WithHorizon(10))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	req := tvnep.Star("r", 1, false, 0.5, 0.25)
	req.Duration, req.Earliest, req.Latest = 1, 0, 2
	if d, err := solver.Admit(context.Background(), req, []int{0, 1}); err != nil || !d.Accepted {
		t.Fatalf("Admit under path mode: accepted=%v err=%v, want an acceptance", d.Accepted, err)
	}

	// Path mode without a node mapping is a Solve-time error: the builder
	// needs the path endpoints.
	if _, err := solver.Solve(context.Background(), []*tvnep.Request{req}, nil); err == nil {
		t.Fatal("path-mode Solve without a mapping must fail")
	}

	// Greedy and rounding combine with path mode (greedy decides on arc
	// flows, rounding relaxes path flows either way).
	for _, a := range []tvnep.Algorithm{tvnep.Greedy, tvnep.Rounding} {
		if _, err := tvnep.New(sub, tvnep.WithAlgorithm(a), tvnep.WithFlowMode(tvnep.FlowPath)); err != nil {
			t.Fatalf("%v + path must construct: %v", a, err)
		}
	}
}

// TestGreedyFlowModesAgree runs the greedy heuristic in both flow modes;
// the heuristic is deterministic, so the accept sets and schedules must
// coincide exactly.
func TestGreedyFlowModesAgree(t *testing.T) {
	sc := scenario(t, 5, 11)
	run := func(m tvnep.FlowMode) *tvnep.Result {
		solver, err := tvnep.New(sc.Substrate,
			tvnep.WithAlgorithm(tvnep.Greedy),
			tvnep.WithFlowMode(m),
			tvnep.WithHorizon(sc.Horizon),
		)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
		if err != nil {
			t.Fatalf("Solve(%v): %v", m, err)
		}
		return res
	}
	arc := run(tvnep.FlowArc)
	path := run(tvnep.FlowPath)
	for r := range sc.Requests {
		if arc.Solution.Accepted[r] != path.Solution.Accepted[r] {
			t.Fatalf("request %d: arc accepted %v, path %v", r, arc.Solution.Accepted[r], path.Solution.Accepted[r])
		}
		if arc.Solution.Accepted[r] &&
			(math.Float64bits(arc.Solution.Start[r]) != math.Float64bits(path.Solution.Start[r]) ||
				math.Float64bits(arc.Solution.End[r]) != math.Float64bits(path.Solution.End[r])) {
			t.Fatalf("request %d: arc schedule [%v,%v], path [%v,%v]", r,
				arc.Solution.Start[r], arc.Solution.End[r], path.Solution.Start[r], path.Solution.End[r])
		}
	}
}

// TestPathModeIncumbentsEmbed solves two paper-scale cells (4×5 grid, 20
// five-node stars, one hour of flexibility) in path mode under a node
// budget the search exhausts. Every integer point of the path build routes
// each accepted virtual link over substrate paths, so the search finds an
// incumbent and it extracts to an embedding that certifies; and the build
// adds no integer variable the arc build lacks.
func TestPathModeIncumbentsEmbed(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale solves")
	}
	cfg := tvnep.PaperWorkload()
	cfg.FlexibilityHr = 1
	for _, seed := range []int64{1, 3} {
		sc := tvnep.Generate(cfg, seed)
		solve := func(opts ...tvnep.Option) (*tvnep.Result, error) {
			opts = append(opts, tvnep.WithHorizon(sc.Horizon))
			solver, err := tvnep.New(sc.Substrate, opts...)
			if err != nil {
				t.Fatalf("seed %d: New: %v", seed, err)
			}
			return solver.Solve(context.Background(), sc.Requests, sc.Mapping)
		}
		path, err := solve(tvnep.WithFlowMode(tvnep.FlowPath), tvnep.WithNodeLimit(200), tvnep.WithCertify())
		if err != nil {
			t.Fatalf("seed %d: path solve: %v", seed, err)
		}
		if path.Status != tvnep.StatusFeasible && path.Status != tvnep.StatusOptimal {
			t.Fatalf("seed %d: path solve status %v", seed, path.Status)
		}
		if path.Solution == nil || path.Certificate == nil || !path.Certificate.Solution.OK() {
			t.Fatalf("seed %d: path solve (status %v) returned no certified solution", seed, path.Status)
		}
		// The arc build's statistics only: the search stops before its
		// root relaxation.
		arc, _ := solve(tvnep.WithTimeLimit(time.Nanosecond))
		if arc == nil || arc.ModelStats == nil || path.ModelStats.IntVars != arc.ModelStats.IntVars {
			t.Fatalf("seed %d: path build has %d integer variables, arc build %+v", seed,
				path.ModelStats.IntVars, arc)
		}
	}
}

// TestPathModeCertifiesRepairedRoot solves, with certification, a path
// build whose root relaxation starts infeasible: two forced requests share
// their endpoints on a 2×2 grid whose links carry one of them at a time,
// so their common fewest-hops seed path is blocked and only a priced path
// around the other side repairs the root.
func TestPathModeCertifiesRepairedRoot(t *testing.T) {
	sub := tvnep.Grid(2, 2, 4, 1)
	var reqs []*tvnep.Request
	var mapping tvnep.NodeMapping
	for _, name := range []string{"a", "b"} {
		req := tvnep.Chain(name, 2, 0.5, 1)
		req.Earliest, req.Duration, req.Latest = 0, 2, 2
		reqs = append(reqs, req)
		mapping = append(mapping, []int{0, 3})
	}
	for _, obj := range []tvnep.Objective{tvnep.MaxEarliness, tvnep.DisableLinks} {
		solver, err := tvnep.New(sub, tvnep.WithFlowMode(tvnep.FlowPath), tvnep.WithObjective(obj),
			tvnep.WithCertify(), tvnep.WithHorizon(2))
		if err != nil {
			t.Fatalf("%v: New: %v", obj, err)
		}
		res, err := solver.Solve(context.Background(), reqs, mapping)
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if res.Status != tvnep.StatusOptimal || res.ColumnStats.PricedCols == 0 {
			t.Fatalf("%v: status %v after %d priced columns", obj, res.Status, res.ColumnStats.PricedCols)
		}
	}
}
