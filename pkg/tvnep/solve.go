package tvnep

import (
	"context"
	"fmt"
	"math"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/round"
	"tvnep/internal/solution"
)

// Result is the outcome of one offline solve.
type Result struct {
	// Solution is the extracted solution (never nil on a nil error).
	Solution *Solution
	// Status is the solver's typed outcome.
	Status SolveStatus
	// Gap is the final relative optimality gap.
	Gap float64
	// Work counts the solve's branch-and-bound nodes and simplex work. A
	// rounding solve reports its LP iterations and its fallback's nodes
	// only.
	Work
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// Cuts summarizes lazy separation (zero without separators).
	Cuts model.CutStats
	// ColumnStats summarizes column generation (zero without pricers, i.e.
	// outside FlowPath mode).
	ColumnStats model.ColumnStats
	// ModelStats describes the built formulation (nil for greedy runs).
	ModelStats *ModelStats
	// Greedy carries the heuristic's per-run statistics (nil for exact
	// runs).
	Greedy *GreedyStats
	// Rounding carries the randomized-rounding tier's per-run statistics
	// (nil unless WithAlgorithm(Rounding) was used).
	Rounding *RoundingStats
	// Certificate holds the independent certificates when WithCertify is
	// set (nil otherwise).
	Certificate *Certificate
}

// ModelStats describes a built formulation.
type ModelStats struct {
	Formulation Formulation
	Objective   Objective
	Vars        int
	Constrs     int
	IntVars     int
	// CutCandidates is the size of the lazily separated Constraint-(20)
	// family (CutLazy cΣ builds only).
	CutCandidates int
}

// Certificate bundles the independent certificates of one result.
type Certificate struct {
	// Solution is the Definition-2.1 + objective recomputation certificate.
	Solution *certify.Report
	// Cuts re-validates every applied lazy cut (exact solves; nil
	// otherwise).
	Cuts *certify.Report
	// Columns re-validates every priced path column against the substrate
	// graph (exact FlowPath solves; nil otherwise).
	Columns *certify.Report
	// RootLP is the primal/dual optimality certificate of the root
	// relaxation the search branched from (exact solves; nil otherwise).
	RootLP *certify.LPCertificate
}

// Solve solves the instance formed by the requests over the solver's
// substrate. mapping pins virtual nodes a priori (the paper's evaluation
// mode); a nil mapping lets exact models place nodes freely. It returns
// ErrNoSolution when the limits are exhausted without a feasible solution
// and *CertificationError when WithCertify is set and a certificate fails.
// A context already cancelled returns its error and no Result before any
// model is built. An exact solve that the context stops returns the
// context's error beside a Result with StatusCancelled and no Solution,
// whose counters hold the work done until then, as ErrNoSolution does.
func (s *Solver) Solve(ctx context.Context, reqs []*Request, mapping NodeMapping) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	horizon := s.cfg.horizon
	if horizon <= 0 {
		for _, r := range reqs {
			if r != nil && r.Latest > horizon {
				horizon = r.Latest
			}
		}
	}
	inst := &core.Instance{Sub: s.sub, Reqs: reqs, Horizon: horizon}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("tvnep: %w", err)
	}
	if s.cfg.flowMode == core.FlowPath && mapping == nil {
		return nil, fmt.Errorf("tvnep: WithFlowMode(path) requires a node mapping (path endpoints must be known at build time)")
	}
	switch s.cfg.algorithm {
	case Greedy:
		return s.solveGreedy(ctx, inst, mapping)
	case Rounding:
		return s.solveRounding(ctx, inst, mapping)
	}
	return s.solveExact(ctx, inst, mapping)
}

func (s *Solver) solveGreedy(ctx context.Context, inst *core.Instance, mapping NodeMapping) (*Result, error) {
	build := core.BuildOptions{CutMode: s.cfg.cutMode, DisablePresolve: s.cfg.noPresolve}
	sol, stats, err := admit.Greedy(ctx, inst, mapping, build, &s.cfg.solve)
	if err != nil {
		return nil, fmt.Errorf("tvnep: %w", err)
	}
	res := &Result{
		Solution: sol,
		Status:   StatusFeasible, // heuristic: feasible, no optimality claim
		Work:     stats.Work,
		Runtime:  sol.Runtime,
		Greedy:   &stats,
	}
	if err := s.verify(inst, sol, mapping, res, nil, nil); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Solver) solveRounding(ctx context.Context, inst *core.Instance, mapping NodeMapping) (*Result, error) {
	opts := round.Options{
		Seed:            s.cfg.solve.Seed,
		Objective:       s.cfg.objective,
		LoadFraction:    s.cfg.loadFraction,
		CutMode:         s.cfg.cutMode,
		DisablePresolve: s.cfg.noPresolve,
		Solve:           s.cfg.solve,
	}
	sol, stats, err := round.Solve(ctx, inst, mapping, opts)
	if err != nil {
		return nil, fmt.Errorf("tvnep: %w", err)
	}
	res := &Result{
		Status:   StatusFeasible, // heuristic: feasible, no optimality claim
		Gap:      math.Inf(1),    // until a solution exists
		Work:     Work{Nodes: stats.FallbackNodes, LPIterations: stats.LPIterations},
		Runtime:  stats.Runtime,
		Rounding: &stats,
	}
	if sol == nil {
		return res, ErrNoSolution
	}
	res.Solution = sol
	res.Gap = sol.Gap
	if sol.Optimal {
		res.Status = StatusOptimal
	}
	if err := s.verify(inst, sol, mapping, res, nil, nil); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Solver) solveExact(ctx context.Context, inst *core.Instance, mapping NodeMapping) (*Result, error) {
	b := core.Build(s.cfg.formulation, inst, core.BuildOptions{
		Objective:       s.cfg.objective,
		LoadFraction:    s.cfg.loadFraction,
		FixedMapping:    mapping,
		CutMode:         s.cfg.cutMode,
		FlowMode:        s.cfg.flowMode,
		DisablePresolve: s.cfg.noPresolve,
	})
	sol, ms := b.Solve(ctx, &s.cfg.solve)
	res := &Result{
		Status:      ms.Status,
		Gap:         ms.Gap,
		Work:        ms.Work,
		Runtime:     ms.Runtime,
		Cuts:        ms.Cuts,
		ColumnStats: ms.Columns,
		ModelStats: &ModelStats{
			Formulation:   s.cfg.formulation,
			Objective:     s.cfg.objective,
			Vars:          b.Model.NumVars(),
			Constrs:       b.Model.NumConstrs(),
			IntVars:       b.Model.NumIntVars(),
			CutCandidates: b.PrecCutCandidates(),
		},
	}
	if ms.Status == model.StatusCancelled {
		return res, ctx.Err()
	}
	if sol == nil {
		return res, ErrNoSolution
	}
	res.Solution = sol
	if err := s.verify(inst, sol, mapping, res, b, ms); err != nil {
		return nil, err
	}
	return res, nil
}

// verify runs the always-on feasibility check or, under WithCertify, the
// full independent certificates (solution, applied cuts, root LP); the
// solution certificate's walk is a superset of the feasibility check.
func (s *Solver) verify(inst *core.Instance, sol *Solution, mapping NodeMapping, res *Result, b *core.Built, ms *model.Solution) error {
	if !s.cfg.certify {
		if err := solution.Check(inst.Sub, inst.Reqs, sol); err != nil {
			return &CertificationError{Stage: "solution", Err: err}
		}
		return nil
	}
	cert := &Certificate{}
	res.Certificate = cert
	certOpts := certify.Options{
		Objective:    s.cfg.objective,
		LoadFraction: s.cfg.loadFraction,
		Mapping:      mapping,
		// Greedy solutions carry the access-control value of their
		// accepted set, so the recomputation applies there too.
	}
	cert.Solution = certify.Solution(inst, sol, certOpts)
	if err := cert.Solution.Err(); err != nil {
		return &CertificationError{Stage: "solution", Err: err}
	}
	if b != nil && ms != nil {
		cert.Cuts = certify.Cuts(b, ms)
		if err := cert.Cuts.Err(); err != nil {
			return &CertificationError{Stage: "cuts", Err: err}
		}
		cert.Columns = certify.Columns(b, ms)
		if err := cert.Columns.Err(); err != nil {
			return &CertificationError{Stage: "columns", Err: err}
		}
		cert.RootLP = certify.LP(b.Model.LP(), ms.Root, 0)
		if err := cert.RootLP.Err(); err != nil {
			return &CertificationError{Stage: "root-lp", Err: err}
		}
	}
	return nil
}
