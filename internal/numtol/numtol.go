// Package numtol is the single home of the numeric tolerances shared across
// the solver stack. Every constant documents exactly what error it bounds and
// which layer introduces that error, so a change here is a deliberate,
// reviewable decision rather than a scattered literal edit.
//
// The floateq analyzer (internal/analyzers) enforces the convention: bare
// scientific-notation tolerance literals such as 1e-6 are flagged outside
// constant declarations, so new tolerances must either live here or be named
// constants local to one kernel (e.g. the sparse-LU pivot thresholds, which
// are properties of that factorization alone and not shared conventions).
//
// Layering: this package must not import anything from the repository, so
// that every layer — linalg, lp, mip, model, core, solution, certify — can
// depend on it without cycles.
package numtol

const (
	// TimeTol bounds the disagreement accepted between two schedule times
	// that should be equal (e.g. a request's scheduled duration vs its d_R,
	// or the model's t⁻ variable vs start+duration). Schedules are produced
	// by LP solves with feasibility tolerance LPFeasTol; after the event
	// times of up to |R|+1 chained constraints accumulate, 1e-5 is the
	// tightest bound the solver reliably meets on the paper's scenarios.
	TimeTol = 1e-5

	// CapTol is the slack allowed when comparing a substrate node/link load
	// against its capacity. Loads are sums of up to |R|·|V_R| LP variable
	// values, each accurate to LPFeasTol.
	CapTol = 1e-5

	// FlowTol bounds the error accepted in splittable-flow values: the
	// distance of a flow fraction from [0,1] and the imbalance of the flow
	// conservation equation at any substrate node.
	FlowTol = 1e-5

	// ObjTol bounds the relative disagreement between a solver-reported
	// objective value and its independent recomputation from the solution's
	// own schedule/flows (internal/certify). The objective is a weighted sum
	// of O(|R|) terms each accurate to roughly LPFeasTol.
	ObjTol = 1e-5

	// TieEps guards temporal precedence decisions against float dust: two
	// schedule checkpoints closer than this are treated as unordered when
	// building the dependency graph. Schedules pinned by earlier LP solves
	// are only LPFeasTol-accurate; dropping an edge only weakens the cuts,
	// it never cuts off a feasible solution.
	TieEps = 1e-6

	// WindowTol tolerates rounding in window arithmetic t^s + d + flex
	// (request validation, horizon containment): the three summands are
	// exact inputs, so only one or two ulps of error arise, far below 1e-9.
	WindowTol = 1e-9

	// FlowCutoff is the threshold below which an extracted flow value is
	// treated as exactly zero. LP basic solutions carry O(LPFeasTol)
	// dust on nominally-zero variables; 1e-9 clears dust that survived the
	// solver's own bound snapping without touching meaningful split flows.
	FlowCutoff = 1e-9

	// EventCoincide is the spacing below which two event times are merged
	// into one timeline event. It only needs to separate "same time modulo
	// float noise" from genuinely distinct events, so it sits well below
	// TimeTol.
	EventCoincide = 1e-12

	// LPFeasTol is the default primal feasibility tolerance of the simplex
	// solver: bound and row violations up to this are accepted.
	LPFeasTol = 1e-7

	// LPOptTol is the default dual feasibility (reduced-cost) tolerance of
	// the simplex solver.
	LPOptTol = 1e-7

	// BoundSnapTol is the distance within which a column value is snapped
	// exactly onto its finite bound when extracting an LP solution. It must
	// exceed the basis-solve roundoff (≈ machine epsilon times the basis
	// condition number) but stay far below any meaningful activity level.
	BoundSnapTol = 1e-9

	// AtBoundTol classifies a value as "at a bound" when the LP certificate
	// (certify.LP) decides which sign a reduced cost or row dual may take.
	// It is looser than BoundSnapTol because the certificate judges values
	// unscaled from the equilibrated solve and row activities it recomputes
	// itself, so a genuinely active bound can be missed by more than the
	// snap distance.
	AtBoundTol = 1e-6

	// MIPGapTol is the default relative optimality gap at which branch and
	// bound declares an incumbent optimal.
	MIPGapTol = 1e-6

	// MIPIntTol is the distance from integrality within which a relaxation
	// value counts as integral. It is not configurable: the branch-and-bound
	// search, the admission precheck's δ and the admission engine's
	// integral-LP shortcut all assume this one value. It must comfortably
	// exceed LPFeasTol, since basic variable values carry that much noise.
	MIPIntTol = 1e-6

	// PriceRedTol is the minimum improving reduced cost a pooled column must
	// show before a pricing round appends it to the LP relaxation. Duals
	// carry LPOptTol-level noise accumulated over O(rows) terms, so anything
	// below this is indistinguishable from a non-improving column; appending
	// it would cost a hot restart and improve nothing.
	PriceRedTol = 1e-6

	// CutViolTol is the minimum amount by which a fractional point must
	// violate a pooled cut before the cut is worth appending to the LP
	// relaxation. Row activities are sums of LPFeasTol-accurate values, so
	// anything below this is indistinguishable from an already-satisfied
	// row; appending it would cost a hot restart and tighten nothing.
	CutViolTol = 1e-6
)
