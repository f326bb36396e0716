// Package core implements the paper's primary contribution: the three
// continuous-time mathematical-programming formulations of the Temporal
// Virtual Network Embedding Problem —
//
//   - the Δ-Model (Section III-B): state *changes* at event points encoded
//     with big-M conditional constraints,
//   - the Σ-Model (Section III-C): explicit per-request state allocation
//     variables with provably stronger LP relaxations,
//   - the cΣ-Model (Section IV): the compactified Σ-Model with |R|+1 event
//     points, temporal dependency graph cuts and the activity-interval
//     state-space-reduction presolve,
//
// together with the four objective functions of Section IV-E.
package core

import (
	"context"
	"fmt"
	"math"

	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// Formulation identifies one of the paper's three MIP models.
type Formulation int

const (
	// Delta is the state-change Δ-Model of Section III-B.
	Delta Formulation = iota
	// Sigma is the explicit-state Σ-Model of Section III-C.
	Sigma
	// CSigma is the compact state model cΣ of Section IV.
	CSigma
)

// String implements fmt.Stringer.
func (f Formulation) String() string {
	switch f {
	case Delta:
		return "Δ"
	case Sigma:
		return "Σ"
	case CSigma:
		return "cΣ"
	default:
		return "?"
	}
}

// Objective selects one of the objective functions of Section IV-E.
type Objective int

const (
	// AccessControl maximizes provider revenue Σ x_R·d_R·Σ c_R(N_v),
	// deciding which requests to accept.
	AccessControl Objective = iota
	// MaxEarliness maximizes the earliness fee over a fixed request set.
	MaxEarliness
	// BalanceNodeLoad maximizes the number of substrate nodes never loaded
	// above fraction f of their capacity (fixed request set).
	BalanceNodeLoad
	// DisableLinks maximizes the number of substrate links that carry no
	// flow over the whole horizon (fixed request set).
	DisableLinks
	// MinMakespan minimizes the time at which the last request finishes
	// (fixed request set). The paper's contribution list names makespan
	// minimization alongside the Section IV-E objectives; it attaches to
	// all three formulations through the t⁻ variables alone.
	MinMakespan
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case AccessControl:
		return "access-control"
	case MaxEarliness:
		return "max-earliness"
	case BalanceNodeLoad:
		return "balance-node-load"
	case DisableLinks:
		return "disable-links"
	case MinMakespan:
		return "min-makespan"
	default:
		return "?"
	}
}

// FixedSet reports whether the objective assumes all requests are embedded
// (everything except access control).
func (o Objective) FixedSet() bool { return o != AccessControl }

// Instance is one TVNEP problem instance (Definition 2.1 inputs).
type Instance struct {
	Sub     *substrate.Network
	Reqs    []*vnet.Request
	Horizon float64 // T
}

// Validate checks the instance inputs.
func (in *Instance) Validate() error {
	if err := in.Sub.Validate(); err != nil {
		return err
	}
	if in.Horizon <= 0 {
		return fmt.Errorf("core: nonpositive horizon %v", in.Horizon)
	}
	for _, r := range in.Reqs {
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Latest > in.Horizon+numtol.WindowTol {
			return fmt.Errorf("core: request %s window exceeds horizon %v", r.Name, in.Horizon)
		}
	}
	return nil
}

// CutMode selects how the cΣ-Model's pairwise precedence cuts (Constraint
// 20) reach the solver.
type CutMode int

const (
	// CutStatic emits every Constraint-(20) row into the root LP at build
	// time — the formulation exactly as written in the paper. O(|R|²·|R|)
	// rows, most of which never bind.
	CutStatic CutMode = iota
	// CutLazy registers a separator on the model instead: the rows are
	// generated from the dependency graph on demand, appended only when a
	// fractional relaxation point violates them. Same certified optimum,
	// strictly fewer root-LP rows.
	CutLazy
	// CutOff drops Constraint (20) entirely and widens the event windows
	// to the full ranges (no Constraint 19 either) — the ablation baseline.
	CutOff
)

// String implements fmt.Stringer.
func (c CutMode) String() string {
	switch c {
	case CutStatic:
		return "static"
	case CutLazy:
		return "lazy"
	case CutOff:
		return "off"
	default:
		return "?"
	}
}

// ParseCutMode parses the CLI spelling of a cut mode.
func ParseCutMode(s string) (CutMode, error) {
	switch s {
	case "static", "":
		return CutStatic, nil
	case "lazy":
		return CutLazy, nil
	case "off":
		return CutOff, nil
	default:
		return CutStatic, fmt.Errorf("core: unknown cut mode %q (want static, lazy or off)", s)
	}
}

// FlowMode selects how the splittable link flows of Constraint (2) reach the
// solver in the cΣ-Model.
type FlowMode int

const (
	// FlowArc emits per-(virtual link, substrate link) arc variables x_E with
	// per-substrate-node flow-conservation rows — the formulation exactly as
	// written in the paper. O(|E_R|·|E_S|) columns and O(|E_R|·|V_S|) rows
	// per request up front.
	FlowArc FlowMode = iota
	// FlowPath replaces the arc variables with path variables: one convexity
	// row per virtual link (Σ_p λ_p = x_R), a seed column along a
	// fewest-hops substrate path, and further paths priced in on demand by
	// a reduced-cost shortest-path pricer (internal/mip column generation).
	// Same certified optimum — every arc flow decomposes into simple paths
	// and capacity-useless cycles — with far fewer root-LP columns on
	// WAN-sized substrates. cΣ only, and requires a fixed node mapping (path
	// endpoints must be known at build time).
	FlowPath
)

// String implements fmt.Stringer.
func (f FlowMode) String() string {
	switch f {
	case FlowArc:
		return "arc"
	case FlowPath:
		return "path"
	default:
		return "?"
	}
}

// ParseFlowMode parses the CLI spelling of a flow mode.
func ParseFlowMode(s string) (FlowMode, error) {
	switch s {
	case "arc", "":
		return FlowArc, nil
	case "path":
		return FlowPath, nil
	default:
		return FlowArc, fmt.Errorf("core: unknown flow mode %q (want arc or path)", s)
	}
}

// BuildOptions configures a formulation build.
type BuildOptions struct {
	Objective Objective
	// LoadFraction is f for BalanceNodeLoad (default 0.5).
	LoadFraction float64
	// FixedMapping, when non-nil, pins every virtual node to a substrate
	// node a priori, as the paper's evaluation does (Section VI-A). When
	// nil, binary node-mapping variables x_V are created.
	FixedMapping vnet.NodeMapping
	// CutMode selects static emission (default), lazy separation or no
	// Constraint-(20) cuts for the cΣ-Model; see the CutMode constants.
	CutMode CutMode
	// FlowMode selects arc variables (default) or priced path variables for
	// the link flows of the cΣ-Model; see the FlowMode constants. FlowPath
	// requires a FixedMapping and the cΣ formulation.
	FlowMode FlowMode
	// DisablePresolve turns the activity-interval state-space reduction
	// off. cΣ only; used for ablations.
	DisablePresolve bool
	// ForceAccept pins x_R = 1 for individual requests (the committed
	// requests of an admission subproblem, Constraint 24). Indexed by
	// request; nil is allowed.
	ForceAccept []bool
}

func (o BuildOptions) loadFraction() float64 {
	if o.LoadFraction <= 0 || o.LoadFraction >= 1 {
		return 0.5
	}
	return o.LoadFraction
}

// Row families that internal/certify looks up by model.Key: the FlowPath
// convexity rows conv[r][lv], the cΣ state rows state[r][n][rsc] and
// capacity rows cap[n][rsc], and the DisableLinks activity rows dis[ls].
const (
	FamConv  = "conv"
	FamState = "state"
	FamCap   = "cap"
	FamDis   = "dis"
)

// Built is a compiled formulation with its variable handles, ready to solve
// (or to receive a custom objective, as the greedy algorithm does).
type Built struct {
	Model *model.Model
	Kind  Formulation
	Inst  *Instance
	Opts  BuildOptions

	// XR[r] decides whether request r is embedded (Table III).
	XR []model.Var
	// XV[r][v][s] maps virtual node v of request r onto substrate node s;
	// nil when a fixed mapping is used.
	XV [][][]model.Var
	// XE[r][lv][ls] maps virtual link lv onto substrate link ls; nil in
	// FlowPath mode, where link flows live on path variables instead.
	XE [][][]model.Var
	// Lambda[r][lv] holds the statically seeded path variables of FlowPath
	// mode (further paths are priced in as raw LP columns, reported through
	// model.Solution.AppliedColumns); nil in FlowArc mode.
	Lambda [][][]model.Var
	// SeedPaths[r][lv][k] is the substrate-link sequence of seed column
	// Lambda[r][lv][k].
	SeedPaths [][][][]int
	// ChiPlus[r][i] / ChiMinus[r][i] map request starts/ends onto abstract
	// event points (1-based event index i; entries outside the model's
	// event range or cut windows are the zero Var).
	ChiPlus, ChiMinus [][]model.Var
	// TEvent[i] is t_{e_i} (1-based; index 0 unused).
	TEvent []model.Var
	// TPlus[r], TMinus[r] are the start/end times t⁺_R, t⁻_R.
	TPlus, TMinus []model.Var

	// numStates is the number of inter-event states of the formulation.
	numStates int
	// precCandidates is the size of the lazily separated Constraint-(20)
	// family (CutLazy builds only); see PrecCutCandidates.
	precCandidates int
	// addStateNodeLoad appends the total allocation on substrate node ns
	// during state n (1-based) to an expression; installed by each builder
	// for the BalanceNodeLoad objective, which alone reads it.
	addStateNodeLoad func(e *model.LinExpr, n, ns int)
	// row, sum and part are the builder's scratch expressions, reset for
	// every use, so emitting a row allocates nothing once they have grown:
	// row is the row being emitted, sum a row or objective accumulated over
	// an inner loop, part a sub-expression folded into row once it is known
	// to be nonempty.
	row, sum, part model.LinExpr
	// linkUse[r·|E_S|+ls] lists the rows in which a unit of request r's
	// flow over substrate link ls participates (FlowPath builds only), each
	// entry scaled by the demand of the virtual link it is read for (see
	// rowCoef.at): compiled rows, state rows (7) the current search opened,
	// and deferred capacity rows (9), named ^i for caps[i] and absent while
	// closed. The pricer assembles priced path columns from it, and the seed
	// columns carry exactly the same coefficients through the expressions.
	linkUse [][]rowCoef
	// convRow[r][lv] is the FlowPath convexity row index (−1 for trivial
	// virtual links whose endpoints share a substrate node).
	convRow [][]int
	// deferred[r] lists the state rows (7) of request r on substrate links
	// that no seed column of r routes over, which the FlowPath build leaves
	// out together with their allocation variables; the path pricer opens
	// those of a link with the first priced column of r over it (see
	// pathPricer.Commit).
	deferred [][]deferredRow
	// opened[r·|E_S|+ls] counts the rows of deferred[r] on link ls the
	// current search has opened; their link-use entries sit at the tail of
	// linkUse[r·|E_S|+ls].
	opened []int
	// caps lists the capacity rows (9) the FlowPath build leaves out because
	// no seed column and no built allocation variable loads them; the first
	// committed column that loads one opens it (see pathPricer.Commit).
	caps []deferredCap
}

// rowCoef is one (compiled row, coefficient-per-unit-flow) entry of the
// FlowPath link-use registry. A demand entry's sign (±1) is scaled by the
// demand of the virtual link it is read for; a unit entry (sign 0) counts
// flow with coefficient 1 whatever the demand.
type rowCoef struct {
	row  int32
	sign int8
}

// at returns the entry's coefficient for one unit of flow on a virtual
// link of demand d, and false when the entry does not apply to the link (a
// demand entry on a link without demand).
func (rc rowCoef) at(d float64) (float64, bool) {
	if rc.sign == 0 {
		return 1, true
	}
	return float64(rc.sign) * d, d > 0
}

// deferredRow is a state the FlowPath build left out, its row (7) and its
// allocation variable a alike: request r's Maybe state n on substrate link
// ls, whose capacity row (9) is capRow, a compiled row or a deferred one
// (^i for caps[i]).
type deferredRow struct {
	n, ls  int
	capRow int32
}

// deferredCap is a capacity row (9) the FlowPath build left out empty: state
// n on substrate link ls. row is its LP row once a committed column opens
// it, −1 while it is closed.
type deferredCap struct {
	n, ls int
	row   int32
}

// rowOf resolves a link-use or capRow index to its LP row: a compiled or
// opened row, or false for a deferred capacity row that is still closed,
// whose dual is 0.
func (b *Built) rowOf(row int32) (int32, bool) {
	if row >= 0 {
		return row, true
	}
	at := b.caps[^row].row
	return at, at >= 0
}

// numReq is a convenience accessor.
func (b *Built) numReq() int { return len(b.Inst.Reqs) }

// Solve optimizes the built model and converts the result into a
// solution.Solution. The raw model solution is returned alongside for
// callers that need solver statistics or custom variable values.
// Cancelling ctx stops the solve cooperatively with
// model.StatusCancelled; a nil ctx is treated as context.Background().
func (b *Built) Solve(ctx context.Context, opts *model.SolveOptions) (*solution.Solution, *model.Solution) {
	ms := b.Model.Optimize(ctx, opts)
	return b.Extract(ms), ms
}

// Extract converts a model solution into a solution.Solution. Returns nil
// when the model solution carries no feasible assignment.
func (b *Built) Extract(ms *model.Solution) *solution.Solution {
	if !ms.HasSolution {
		return nil
	}
	k := b.numReq()
	sub := b.Inst.Sub
	sol := &solution.Solution{
		Accepted:  make([]bool, k),
		Start:     make([]float64, k),
		End:       make([]float64, k),
		Hosts:     make([][]int, k),
		Flows:     make([][][]float64, k),
		Objective: ms.Obj,
		Bound:     ms.Bound,
		Gap:       ms.Gap,
		Optimal:   ms.Status == model.StatusOptimal && ms.Gap == 0,
		Runtime:   ms.Runtime,
	}
	for r, req := range b.Inst.Reqs {
		sol.Accepted[r] = ms.Value(b.XR[r]) > 0.5
		sol.Start[r] = ms.Value(b.TPlus[r])
		// Clean rounding: the schedule end is derived from the extracted
		// start and the exact duration. The model's own t⁻ is LP-tolerance
		// accurate; if it disagrees beyond tolerance something is wrong
		// with the formulation, so record a warning instead of silently
		// preferring one of the two values.
		sol.End[r] = sol.Start[r] + req.Duration
		if tMinus := ms.Value(b.TMinus[r]); math.Abs(tMinus-sol.End[r]) > numtol.TimeTol {
			sol.Warnings = append(sol.Warnings, fmt.Sprintf(
				"request %s: model end time t⁻=%.9g disagrees with start+duration=%.9g",
				req.Name, tMinus, sol.End[r]))
		}
		if b.Opts.FixedMapping != nil {
			sol.Hosts[r] = append([]int(nil), b.Opts.FixedMapping[r]...)
		} else {
			hosts := make([]int, req.G.N)
			for v := 0; v < req.G.N; v++ {
				bestS, bestVal := 0, math.Inf(-1)
				for s := 0; s < sub.NumNodes(); s++ {
					if val := ms.Value(b.XV[r][v][s]); val > bestVal {
						bestS, bestVal = s, val
					}
				}
				hosts[v] = bestS
			}
			sol.Hosts[r] = hosts
		}
		flows := make([][]float64, req.G.NumEdges())
		for lv := range flows {
			flows[lv] = make([]float64, sub.NumLinks())
			if b.XE == nil {
				continue // FlowPath: summed from the path columns below
			}
			for ls := 0; ls < sub.NumLinks(); ls++ {
				f := ms.Value(b.XE[r][lv][ls])
				if f < numtol.FlowCutoff {
					f = 0
				}
				flows[lv][ls] = f
			}
		}
		sol.Flows[r] = flows
	}
	// FlowPath: the arc flow on ls is the total path-variable value over
	// the paths crossing it.
	b.ForEachPathFlow(ms, func(r, lv int, links []int, v float64) {
		for _, ls := range links {
			sol.Flows[r][lv][ls] += v
		}
	})
	return sol
}

// ForEachPathFlow calls f with every path column of a FlowPath model
// solution that carries flow: value v ≥ numtol.FlowCutoff on virtual link
// lv of request r, routed over the substrate links in links (shared; treat
// as read-only). The seed columns come first in (r, lv) order, then the
// priced columns in append order. Extract sums the arc flows from it, and
// internal/round reads the relaxation's path decomposition off it. On an
// arc build, or a solution without an assignment, f is never called.
func (b *Built) ForEachPathFlow(ms *model.Solution, f func(r, lv int, links []int, v float64)) {
	if b.XE != nil || !ms.HasSolution {
		return
	}
	for r, seeds := range b.SeedPaths {
		for lv, paths := range seeds {
			for k, p := range paths {
				if v := ms.Value(b.Lambda[r][lv][k]); v >= numtol.FlowCutoff {
					f(r, lv, p, v)
				}
			}
		}
	}
	x := ms.X()
	for k, c := range ms.AppliedColumns {
		tag, ok := c.Tag.(pathTag)
		if !ok {
			continue
		}
		j := ms.Columns.ColsAtRoot + k
		if j >= len(x) {
			continue // incumbent predates this column: value is zero
		}
		if v := x[j]; v >= numtol.FlowCutoff {
			f(tag.r, tag.lv, tag.links, v)
		}
	}
}

// Build dispatches to the requested formulation.
func Build(f Formulation, inst *Instance, opts BuildOptions) *Built {
	switch f {
	case Delta:
		return BuildDelta(inst, opts)
	case Sigma:
		return BuildSigma(inst, opts)
	case CSigma:
		return BuildCSigma(inst, opts)
	default:
		panic(fmt.Sprintf("core: unknown formulation %d", int(f)))
	}
}
