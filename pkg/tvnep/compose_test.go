package tvnep_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tvnep/pkg/tvnep"
)

// TestOptionsCompose pins which options compose and which are real
// limitations. The rounding tier relaxes path flows whatever WithFlowMode
// says and the static-cut model under WithCutMode(lazy), and online
// admission decides on arc flows, so those combinations must give results
// bit-identical to their counterparts under the default arc and static
// options, solution and statistics alike (wall-clock fields aside). Δ and Σ have no cΣ variants, and
// rounding relaxes the cΣ-Model only: those combinations still fail New
// with *OptionConflictError.
func TestOptionsCompose(t *testing.T) {
	sc := scenario(t, 6, 9)
	trace := scenario(t, 60, 3)
	rounding := func(t *testing.T, opts ...tvnep.Option) any {
		solver, err := tvnep.New(sc.Substrate, append([]tvnep.Option{
			tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithSeed(21), tvnep.WithHorizon(sc.Horizon),
		}, opts...)...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := solver.Solve(context.Background(), sc.Requests, sc.Mapping)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		sol, stats := *res.Solution, *res.Rounding
		sol.Runtime, stats.Runtime = 0, 0
		return []any{sol, stats, res.Status, res.Gap, res.Nodes, res.LPIterations}
	}
	admission := func(t *testing.T, opts ...tvnep.Option) any {
		solver, err := tvnep.New(trace.Substrate, append([]tvnep.Option{tvnep.WithHorizon(trace.Horizon)}, opts...)...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for r, req := range trace.Requests {
			if _, err := solver.Admit(context.Background(), req, trace.Mapping[r]); err != nil {
				t.Fatalf("Admit(%d): %v", r, err)
			}
		}
		ds := solver.Decisions()
		accepted := 0
		for i := range ds {
			ds[i].Stats.Latency = 0
			if ds[i].Accepted {
				accepted++
			}
		}
		if len(ds) != len(trace.Requests) || accepted == 0 || accepted == len(ds) {
			t.Fatalf("%d decisions, %d accepted: the trace must both accept and reject", len(ds), accepted)
		}
		return ds
	}
	same := []struct {
		name          string
		run           func(*testing.T, ...tvnep.Option) any
		base, variant []tvnep.Option
	}{
		{"rounding/path=default", rounding, nil, []tvnep.Option{tvnep.WithFlowMode(tvnep.FlowPath)}},
		{"rounding/lazy=static", rounding,
			[]tvnep.Option{tvnep.WithCutMode(tvnep.CutStatic)}, []tvnep.Option{tvnep.WithCutMode(tvnep.CutLazy)}},
		{"rounding/path+lazy=arc+static", rounding,
			nil, []tvnep.Option{tvnep.WithFlowMode(tvnep.FlowPath), tvnep.WithCutMode(tvnep.CutLazy)}},
		{"admit/path=arc", admission, nil, []tvnep.Option{tvnep.WithFlowMode(tvnep.FlowPath)}},
	}
	for _, tc := range same {
		t.Run(tc.name, func(t *testing.T) {
			want, got := tc.run(t, tc.base...), tc.run(t, tc.variant...)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("results differ:\nbase:    %+v\nvariant: %+v", want, got)
			}
		})
	}

	sub := tvnep.Grid(2, 2, 1, 1)
	conflicts := []struct {
		name string
		opts []tvnep.Option
		want string
	}{
		{"delta-cutmode", []tvnep.Option{tvnep.WithFormulation(tvnep.Delta), tvnep.WithCutMode(tvnep.CutOff)}, "WithCutMode"},
		{"sigma-cutmode", []tvnep.Option{tvnep.WithFormulation(tvnep.Sigma), tvnep.WithCutMode(tvnep.CutLazy)}, "WithCutMode"},
		{"delta-flowmode", []tvnep.Option{tvnep.WithFormulation(tvnep.Delta), tvnep.WithFlowMode(tvnep.FlowPath)}, "WithFlowMode"},
		{"sigma-flowmode", []tvnep.Option{tvnep.WithFormulation(tvnep.Sigma), tvnep.WithFlowMode(tvnep.FlowArc)}, "WithFlowMode"},
		{"delta-presolve", []tvnep.Option{tvnep.WithFormulation(tvnep.Delta), tvnep.WithoutPresolve()}, "WithoutPresolve"},
		{"sigma-presolve", []tvnep.Option{tvnep.WithFormulation(tvnep.Sigma), tvnep.WithoutPresolve()}, "WithoutPresolve"},
		{"rounding-delta", []tvnep.Option{tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithFormulation(tvnep.Delta)}, "WithAlgorithm(rounding)"},
		{"rounding-sigma", []tvnep.Option{tvnep.WithAlgorithm(tvnep.Rounding), tvnep.WithFormulation(tvnep.Sigma)}, "WithAlgorithm(rounding)"},
	}
	for _, tc := range conflicts {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tvnep.New(sub, tc.opts...)
			var conflict *tvnep.OptionConflictError
			if !errors.As(err, &conflict) {
				t.Fatalf("want *OptionConflictError, got %v", err)
			}
			if conflict.Option != tc.want {
				t.Errorf("Option = %q, want %q", conflict.Option, tc.want)
			}
		})
	}
}
