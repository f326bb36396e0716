// Package tvnep is the public API of this repository. See doc.go for the
// package overview and a runnable example.
package tvnep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/round"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// Re-exported problem-data types. The facade is the only supported entry
// point; these aliases are the full public surface of the underlying
// packages.
type (
	// Substrate is the physical network (nodes/links with capacities).
	Substrate = substrate.Network
	// Request is one VNet request with temporal parameters (Table VI).
	Request = vnet.Request
	// NodeMapping pins virtual nodes to substrate nodes a priori.
	NodeMapping = vnet.NodeMapping
	// Solution is a (candidate) TVNEP solution.
	Solution = solution.Solution
	// Instance bundles a substrate, a request set and a horizon.
	Instance = core.Instance
	// Scenario is a generated evaluation scenario.
	Scenario = workload.Scenario
	// WorkloadConfig parameterizes scenario generation (Section VI-A).
	WorkloadConfig = workload.Config
	// RequestWire is the JSON wire form of a request (scenario files and
	// the admission server's submit endpoint).
	RequestWire = workload.RequestJSON

	// Formulation identifies one of the paper's three MIP models.
	Formulation = core.Formulation
	// Objective selects one of the Section IV-E objective functions.
	Objective = core.Objective
	// CutMode selects the Constraint-(20) cut pipeline (cΣ only).
	CutMode = core.CutMode
	// FlowMode selects arc-based or path-based link flows (cΣ only).
	FlowMode = core.FlowMode

	// SolveStatus is the typed outcome of a solve.
	SolveStatus = model.Status
	// Work counts a solve's deterministic work: branch-and-bound nodes,
	// simplex iterations, and the dual ratio test's bound flips and
	// breakpoint passes.
	Work = model.Work
	// Progress is a snapshot of a running solve.
	Progress = model.Progress
	// GreedyStats reports per-run statistics of the greedy algorithm: the
	// statistics of the admission engine it replays.
	GreedyStats = admit.Stats
	// RoundingStats reports per-run statistics of the randomized-rounding
	// tier (samples, repairs, fallback).
	RoundingStats = round.Stats

	// Decision is the admission engine's answer to one streamed request.
	Decision = admit.Decision
	// DecisionStats are the per-decision solver statistics.
	DecisionStats = admit.DecisionStats
	// EngineStats aggregates admission statistics across all decisions.
	EngineStats = admit.Stats
	// Tier names the cost tier that produced an admission decision.
	Tier = admit.Tier
)

// Formulations.
const (
	Delta  = core.Delta
	Sigma  = core.Sigma
	CSigma = core.CSigma
)

// Objectives.
const (
	AccessControl   = core.AccessControl
	MaxEarliness    = core.MaxEarliness
	BalanceNodeLoad = core.BalanceNodeLoad
	DisableLinks    = core.DisableLinks
	MinMakespan     = core.MinMakespan
)

// Cut modes.
const (
	CutStatic = core.CutStatic
	CutLazy   = core.CutLazy
	CutOff    = core.CutOff
)

// Flow modes.
const (
	FlowArc  = core.FlowArc
	FlowPath = core.FlowPath
)

// Solve statuses.
const (
	StatusOptimal    = model.StatusOptimal
	StatusFeasible   = model.StatusFeasible
	StatusInfeasible = model.StatusInfeasible
	StatusUnbounded  = model.StatusUnbounded
	StatusTimeLimit  = model.StatusTimeLimit
	StatusCancelled  = model.StatusCancelled
)

// Admission tiers.
const (
	// TierPrecheck: rejected on committed node load by the residual-
	// capacity window precheck, no model and no solve.
	TierPrecheck = admit.TierPrecheck
	// TierLP is never produced.
	//
	// Deprecated: it named a root-LP fast tier that the engine no longer
	// runs; the search now decides those admissions at its root, as TierMIP.
	TierLP = admit.TierLP
	// TierRounding: accepted by rounding the root relaxation.
	TierRounding = admit.TierRounding
	// TierMIP: decided by a full branch-and-bound solve.
	TierMIP = admit.TierMIP
)

// Re-exported constructors and helpers.
var (
	// Grid builds the rows×cols grid substrate of the paper's evaluation.
	Grid = substrate.Grid
	// Star, Chain and Clique build the canonical request topologies.
	Star   = vnet.Star
	Chain  = vnet.Chain
	Clique = vnet.Clique
	// Generate produces a seeded evaluation scenario.
	Generate = workload.Generate
	// DefaultWorkload and PaperWorkload are the two scenario presets.
	DefaultWorkload = workload.Default
	PaperWorkload   = workload.PaperScale
	// ParseCutMode parses the CLI spelling of a cut mode.
	ParseCutMode = core.ParseCutMode
	// ParseFlowMode parses the CLI spelling of a flow mode.
	ParseFlowMode = core.ParseFlowMode
	// WriteTimeline prints the piecewise-constant utilization timeline.
	WriteTimeline = solution.WriteTimeline
	// CheckSolution is the independent Definition-2.1 feasibility checker.
	CheckSolution = solution.Check
	// EncodeRequest converts a request into its JSON wire form.
	EncodeRequest = workload.EncodeRequest
)

// Algorithm selects how Solver.Solve computes its solution.
type Algorithm int

const (
	// Exact solves the selected formulation to proven optimality.
	Exact Algorithm = iota
	// Greedy runs the polynomial-time online heuristic cΣ_A^G (Section V):
	// the admission engine fed the requests in order of earliest start,
	// re-routing committed link flows at every decision. It supports the
	// AccessControl objective only and requires a node mapping.
	Greedy
	// Rounding runs the approximate LP-relaxation randomized-rounding tier
	// (internal/round): relax, decompose, sample, repair by deferral, and
	// fall back to exact branch-and-bound only when no sample survives. It
	// requires a node mapping and the cΣ formulation; every returned
	// solution has passed the independent certifier. It relaxes arc flows
	// whatever WithFlowMode says, and under WithCutMode(lazy) the
	// static-cut model, since nothing separates cuts in a bare relaxation.
	// Online admission (Solver.Admit) uses it as an extra fast tier ahead of
	// the MIP tier.
	Rounding
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Exact:
		return "exact"
	case Greedy:
		return "greedy"
	case Rounding:
		return "rounding"
	default:
		return fmt.Sprintf("tvnep.Algorithm(%d)", int(a))
	}
}

// OptionConflictError reports an option that does not apply to the
// configured formulation or algorithm: the cut pipeline, the path flows and
// the activity-interval presolve exist in the cΣ-Model only, so requesting
// them with Δ or Σ is a configuration error, not a silent no-op (and not a
// stderr warning). Likewise, the rounding algorithm relaxes the cΣ-Model
// only.
type OptionConflictError struct {
	// Option is the conflicting option's name, e.g. "WithCutMode".
	Option string
	// Formulation is the formulation the option does not apply to.
	Formulation Formulation
}

// Error implements error.
func (e *OptionConflictError) Error() string {
	return fmt.Sprintf("tvnep: %s applies to the cΣ model only; the %v model has no such variant",
		e.Option, e.Formulation)
}

// CertificationError reports that a solve or admission produced a solution
// the independent certifier rejected.
type CertificationError struct {
	// Stage names the certificate that failed ("solution", "cuts",
	// "columns", "root-lp").
	Stage string
	// Err is the underlying certificate error (all named violations).
	Err error
}

// Error implements error.
func (e *CertificationError) Error() string {
	return fmt.Sprintf("tvnep: %s certificate failed: %v", e.Stage, e.Err)
}

// Unwrap exposes the certificate error to errors.Is/As.
func (e *CertificationError) Unwrap() error { return e.Err }

// ErrNoSolution is returned when a solve finds no feasible solution within
// its limits.
var ErrNoSolution = errors.New("tvnep: no feasible solution found within the limits")

// ErrNoHorizon is returned when online admission is requested without a
// planning horizon (WithHorizon): the streaming engine cannot derive T from
// requests it has not seen yet.
var ErrNoHorizon = errors.New("tvnep: online admission requires WithHorizon")

// config is the resolved option set of a Solver.
type config struct {
	formulation     Formulation
	objective       Objective
	algorithm       Algorithm
	cutMode         CutMode
	flowMode        FlowMode
	noPresolve      bool
	loadFraction    float64
	horizon         float64
	certify         bool
	reoptEvery      int
	solve           model.SolveOptions
	conflictingOpts []string // options that require the cΣ formulation
}

// Option configures a Solver; see New.
type Option func(*config)

// WithFormulation selects the MIP model (default CSigma).
func WithFormulation(f Formulation) Option {
	return func(c *config) { c.formulation = f }
}

// WithObjective selects the objective function (default AccessControl).
func WithObjective(o Objective) Option {
	return func(c *config) { c.objective = o }
}

// WithAlgorithm selects exact, greedy or rounding solving (default Exact).
// Online admission (Solver.Admit) always runs the engine's incremental
// algorithm; Rounding adds the rounding tier to it, the other two leave it
// as is.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) { c.algorithm = a }
}

// WithCutMode selects the Constraint-(20) cut pipeline. cΣ only: combining
// it with Delta or Sigma makes New fail with *OptionConflictError.
func WithCutMode(m CutMode) Option {
	return func(c *config) {
		c.cutMode = m
		c.conflictingOpts = append(c.conflictingOpts, "WithCutMode")
	}
}

// WithFlowMode selects arc-based or path-based link flows (default arc).
// Path mode replaces the per-link arc variables and conservation rows with
// one convexity row per virtual link and path columns priced on demand by a
// reduced-cost shortest-path pricer; both modes reach the same certified
// optimum. It shapes exact solves only: the greedy and rounding algorithms
// and online admission decide on arc flows whatever it says, since every
// per-decision model and every rounded relaxation reaches the same optimum
// in either mode (TestGreedyFlowModesAgree, TestOptionsCompose). cΣ only:
// combining it with Delta or Sigma makes New fail with
// *OptionConflictError. Path mode requires a node mapping at Solve time
// (path endpoints must be known when the model is built).
func WithFlowMode(m FlowMode) Option {
	return func(c *config) {
		c.flowMode = m
		c.conflictingOpts = append(c.conflictingOpts, "WithFlowMode")
	}
}

// WithoutPresolve disables the activity-interval state-space reduction
// (ablations). cΣ only: combining it with Delta or Sigma makes New fail
// with *OptionConflictError.
func WithoutPresolve() Option {
	return func(c *config) {
		c.noPresolve = true
		c.conflictingOpts = append(c.conflictingOpts, "WithoutPresolve")
	}
}

// WithLoadFraction sets f for the BalanceNodeLoad objective (default 0.5).
func WithLoadFraction(f float64) Option {
	return func(c *config) { c.loadFraction = f }
}

// WithHorizon fixes the planning horizon T. Offline solves default to the
// largest request window end; online admission requires this option.
func WithHorizon(t float64) Option {
	return func(c *config) { c.horizon = t }
}

// WithTimeLimit bounds each solve by d. Note that a time limit makes online
// admission decisions depend on machine speed; prefer WithNodeLimit for
// reproducible traces.
func WithTimeLimit(d time.Duration) Option {
	return func(c *config) { c.solve.TimeLimit = d }
}

// WithNodeLimit bounds each branch-and-bound search by n nodes. Unlike a
// time limit this keeps decisions a pure function of the inputs.
func WithNodeLimit(n int) Option {
	return func(c *config) { c.solve.NodeLimit = n }
}

// WithWorkers sets nothing: Solve and Admit run their branch-and-bound
// search serially, and no Solver method runs a sweep.
//
// Deprecated: it has no effect.
func WithWorkers(n int) Option {
	return func(*config) {}
}

// WithSeed sets the seed for the randomized-rounding tier's explicitly
// seeded sampling (WithAlgorithm(Rounding) and the admission engine's
// rounding tier). Equal seeds give bit-identical results; the exact
// branch-and-bound is deterministic by construction and ignores it.
func WithSeed(seed int64) Option {
	return func(c *config) { c.solve.Seed = seed }
}

// WithProgress installs a per-solve progress callback.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.solve.Progress = fn }
}

// WithCertify re-verifies every result with the independent certifier
// before it is returned (solution certificate; for exact solves also the
// applied-cut and root-LP certificates). Certification failures surface as
// *CertificationError; the admission engine additionally downgrades
// uncertified acceptances to rejections. An admission is certified as an
// extension of the committed system, which is itself certified: the
// arriving request's own checks, and capacity where it runs, against the
// committed requests it overlaps. The whole committed system is certified
// again before a re-optimization (WithReoptEvery) commits new flows, and
// on every /v1/solution fetch.
func WithCertify() Option {
	return func(c *config) { c.certify = true }
}

// WithReoptEvery triggers a batched re-optimization of committed link
// allocations after every n-th accepted admission (0 → never).
func WithReoptEvery(n int) Option {
	return func(c *config) { c.reoptEvery = n }
}

// Solver is the facade over every solve mode of the repository: exact
// formulations, the greedy heuristic, and the online admission engine. A
// Solver is safe for concurrent use; admissions are serialized internally.
type Solver struct {
	sub *Substrate
	cfg config

	// Online admission engine, created lazily by the first Admit call. The
	// read methods load eng without the once: it is published atomically,
	// so a read concurrent with that first Admit sees nil or the engine.
	engOnce sync.Once
	eng     atomic.Pointer[admit.Engine]
	engErr  error
}

// New validates the configuration and returns a Solver for the substrate.
func New(sub *Substrate, opts ...Option) (*Solver, error) {
	if sub == nil {
		return nil, errors.New("tvnep: nil substrate")
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("tvnep: %w", err)
	}
	cfg := config{formulation: CSigma, objective: AccessControl}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.formulation != CSigma && len(cfg.conflictingOpts) > 0 {
		return nil, &OptionConflictError{Option: cfg.conflictingOpts[0], Formulation: cfg.formulation}
	}
	if cfg.algorithm == Greedy && cfg.objective != AccessControl {
		return nil, fmt.Errorf("tvnep: the greedy algorithm supports the %v objective only, not %v",
			AccessControl, cfg.objective)
	}
	if cfg.algorithm == Rounding && cfg.formulation != CSigma {
		return nil, &OptionConflictError{Option: "WithAlgorithm(rounding)", Formulation: cfg.formulation}
	}
	return &Solver{sub: sub, cfg: cfg}, nil
}

// Substrate returns the solver's substrate network.
func (s *Solver) Substrate() *Substrate { return s.sub }
