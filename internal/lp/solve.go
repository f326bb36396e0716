package lp

import (
	"math"
	"sync/atomic"

	"tvnep/internal/numtol"
)

// Solve optimizes the instance under its current column bounds. If
// opts.WarmBasis is set and compatible, a dual-simplex warm start is
// attempted first; any failure falls back to a cold solve (a dual phase 1
// from the all-slack basis, then the primal simplex; see solveCold).
// Under the debugchecks build tag every optimal result is additionally
// re-checked against the instance's row and bound data before it is
// returned (see debugcheck_on.go).
//
//det:entry
func (inst *Instance) Solve(opts *Options) Result {
	res := inst.solveDispatch(opts)
	debugVerifyResult(inst, &res)
	return res
}

func (inst *Instance) solveDispatch(opts *Options) Result {
	var o Options
	if opts != nil {
		o = *opts
	}
	budget := inst.iterBudget()
	if o.WarmBasis != nil {
		res, used, ok := inst.solveWarm(o, budget)
		if ok {
			return res
		}
		// One shared budget: iterations burned by the failed warm attempt
		// come out of the cold fallback's allowance, so a warm-started
		// solve can never run up to twice the budget.
		budget -= used
		if budget <= 0 {
			return Result{Status: StatusIterLimit, Iterations: used}
		}
		res = inst.solveCold(o, budget)
		res.Iterations += used
		return res
	}
	return inst.solveCold(o, budget)
}

// Debug counters, safe for concurrent solves (each worker of a parallel
// sweep owns its own Instance, but these aggregates are shared). They
// quantify how often warm starts succeed and how they obtain their basis
// factorization.
var (
	DebugWarmAttempts atomic.Int64
	DebugWarmOK       atomic.Int64
	// DebugFactorHandoffs counts warm starts that adopted an explicitly
	// supplied Options.WarmFactors (the cache-independent handoff
	// branch-and-bound nodes warm-start from).
	DebugFactorHandoffs atomic.Int64
	// DebugBasisExtensions counts warm starts whose basis predated appended
	// rows and whose LU factors were extended with a bordered block instead
	// of refactorized (the lazy-cut hot-restart path).
	DebugBasisExtensions atomic.Int64
)

// solveWarm attempts a dual-simplex warm start. The boolean result reports
// whether the attempt produced a conclusive answer; iters is the number of
// simplex iterations consumed either way, so an inconclusive attempt can be
// charged against the cold fallback's budget.
func (inst *Instance) solveWarm(o Options, maxIters int) (res Result, iters int, ok bool) {
	DebugWarmAttempts.Add(1)
	s := newSolver(inst, o)
	copy(s.cost, s.real)
	wb := o.WarmBasis
	extended := false
	remapped := false
	nOld := len(wb.Status) - len(wb.Basic)
	if nOld != inst.n {
		// The basis predates columns appended by AppendColumn: remap it onto
		// the widened column space. The basic set is untouched, so the factor
		// handoff below still matches.
		if nOld < 0 || nOld > inst.n {
			return Result{}, 0, false
		}
		wb = inst.extendWarmStartCols(wb, nOld)
		remapped = true
	}
	if len(wb.Basic) < s.m {
		// The basis predates rows appended by AppendRow: extend it (new
		// slacks basic) and, when the factor handoff matches, extend the LU
		// factors too (into the solver's view, flagged by s.extended).
		// The extended point stays dual feasible, so the usual dual →
		// primal-polish restart below applies unchanged.
		eb := s.extendWarmStart(wb, o.WarmFactors)
		if eb == nil {
			return Result{}, 0, false
		}
		wb = eb
		extended = s.extended
		s.opts.WarmFactors = nil // the extension or a refactorization, never the unextended factors
	}
	if !s.adoptBasis(wb) {
		return Result{}, 0, false
	}
	DebugWarmOK.Add(1)
	// warmResult stamps the per-solve warm-start provenance onto a
	// successful result; see Result.WarmUsed/BasisExtended/ColumnsRemapped.
	warmResult := func(st Status) Result {
		r := s.result(st)
		r.WarmUsed = true
		r.BasisExtended = extended
		r.ColumnsRemapped = remapped
		return r
	}
	if remapped && !s.appendedColsDualFeasible(nOld) {
		// An appended column prices in at the adopted point, so the point is
		// dual infeasible and the dual restart below would be unsound (its
		// phase logic assumes dual feasibility throughout). With only columns
		// appended the basic values are unchanged and the point stays primal
		// feasible — verify (branching may have moved bounds since the
		// snapshot) and optimize with the primal simplex directly.
		if s.primalInfeasibility() > 10*numtol.LPFeasTol {
			return Result{}, s.iters, false
		}
		s.dValid = false
		switch s.primal(maxIters) {
		case iterOptimal:
			return warmResult(StatusOptimal), s.iters, true
		case iterUnbounded:
			return warmResult(StatusUnbounded), s.iters, true
		default:
			return Result{}, s.iters, false
		}
	}
	st := s.dual(maxIters)
	switch st {
	case iterOptimal:
		// Polish: the dual run restored primal feasibility; a short primal
		// run certifies optimality (usually zero iterations). The two runs
		// share s.iters, so maxIters bounds their sum.
		st2 := s.primal(maxIters)
		switch st2 {
		case iterOptimal:
			return warmResult(StatusOptimal), s.iters, true
		case iterUnbounded:
			return warmResult(StatusUnbounded), s.iters, true
		default:
			return Result{}, s.iters, false
		}
	case iterInfeasible:
		return warmResult(StatusInfeasible), s.iters, true
	default:
		return Result{}, s.iters, false // numeric trouble or limit: retry cold
	}
}

// solveCold solves from scratch: a dual phase 1 from the all-slack basis
// restores primal feasibility, then the primal simplex optimizes the real
// objective. A run that is interrupted or exhausts its iteration budget
// reports StatusIterLimit, and one that hits irrecoverable numerical trouble
// StatusNumeric; either way the result keeps the iterations taken.
func (inst *Instance) solveCold(o Options, maxIters int) Result {
	s := newSolver(inst, o)
	// Dual phase 1: the all-slack basis under zero costs is trivially dual
	// feasible, so the dual simplex restores primal feasibility directly,
	// and with the long-step ratio test the all-zero reduced costs make
	// every breakpoint a tie, so the entering column is simply the most
	// stable pivot.
	if err := s.crashSlackBasis(); err != nil {
		return s.result(StatusNumeric)
	}
	s.dValid = false
	s.xbFresh = true
	switch s.dual(maxIters) {
	case iterInfeasible:
		return s.result(StatusInfeasible)
	case iterLimit:
		return s.result(StatusIterLimit)
	case iterNumeric:
		return s.result(StatusNumeric)
	}
	copy(s.cost, s.real)
	s.dValid, s.yFresh = false, false
	switch s.primal(maxIters) {
	case iterOptimal:
		return s.finishOptimal(maxIters)
	case iterUnbounded:
		return s.result(StatusUnbounded)
	default:
		return s.result(StatusIterLimit)
	}
}

// finishOptimal guards a claimed primal optimum against incremental drift:
// basic values are recomputed from a fresh factorization, and a residual
// infeasibility is repaired once with a dual-then-primal cleanup before the
// result is packaged. A cleanup that does not end optimal reports its real
// outcome instead: StatusIterLimit when it was interrupted or ran out of
// iterations, StatusNumeric otherwise.
func (s *solver) finishOptimal(maxIters int) Result {
	if err := s.refactor(); err == nil {
		s.computeXB()
	}
	if s.primalInfeasibility() > 10*numtol.LPFeasTol {
		st := s.dual(maxIters)
		if st == iterOptimal {
			st = s.primal(maxIters)
		}
		switch st {
		case iterOptimal:
		case iterLimit:
			return s.result(StatusIterLimit)
		default:
			return s.result(StatusNumeric)
		}
	}
	return s.result(StatusOptimal)
}

// result packages the solver state into a Result, removing the
// equilibration scaling: solutions, duals and objective are reported in the
// problem's original units (exactly — the scales are powers of two). The
// vectors and the basis snapshot are drawn from the instance's idle
// buffers, if any, and every entry is written.
//
//hot:path
func (s *solver) result(status Status) Result {
	inst := s.inst
	res := Result{
		Status:      status,
		Iterations:  s.iters,
		BoundFlips:  s.boundFlips,
		RatioPasses: s.ratioPass,
	}
	if status == StatusOptimal {
		res.X = inst.vector(solutionVec, inst.n)
		for j := 0; j < inst.n; j++ {
			v := s.colValue(j)
			if inst.scaled {
				v *= inst.colScale[j] // x_j = c_j·x'_j, exact
			}
			// Snap to (original-unit) bounds within tolerance for clean
			// downstream use.
			if !math.IsInf(inst.lb[j], -1) && math.Abs(v-inst.lb[j]) < numtol.BoundSnapTol {
				v = inst.lb[j]
			} else if !math.IsInf(inst.ub[j], 1) && math.Abs(v-inst.ub[j]) < numtol.BoundSnapTol {
				v = inst.ub[j]
			}
			res.X[j] = v
		}
		obj := inst.p.ObjOffset
		min := 0.0
		for j := 0; j < inst.n; j++ {
			min += inst.objMin[j] * res.X[j]
		}
		if inst.negate {
			obj -= min
		} else {
			obj += min
		}
		res.Obj = obj
		s.computeDuals()
		res.Duals = inst.vector(dualVec, s.m)
		if inst.scaled {
			for i := 0; i < s.m; i++ {
				res.Duals[i] = s.y[i] * inst.rowScale[i] // y_i = r_i·y'_i, exact
			}
		} else {
			copy(res.Duals, s.y)
		}
		if inst.negate {
			for i := range res.Duals {
				res.Duals[i] = -res.Duals[i]
			}
		}
	}
	if status == StatusOptimal || status == StatusInfeasible {
		res.Basis = s.snapshot()
	}
	return res
}
