package certify

import (
	"math"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// LP-certificate violation classes.
const (
	// LPStatus: the result does not claim optimality, so no certificate
	// can be checked.
	LPStatus Kind = "lp-status"
	// LPRowResidual: a row activity violates its range (‖Ax−b‖∞ test).
	LPRowResidual Kind = "lp-row-residual"
	// LPBound: a column value violates its bounds.
	LPBound Kind = "lp-bound"
	// LPDualSign: a reduced cost or row dual has the wrong sign for the
	// at-bound status of its column/row (dual infeasibility).
	LPDualSign Kind = "lp-dual-sign"
	// LPDualityGap: the primal and dual objective values disagree beyond
	// tolerance (complementary slackness fails somewhere).
	LPDualityGap Kind = "lp-duality-gap"
	// LPObjective: the reported objective disagrees with c·x + offset.
	LPObjective Kind = "lp-objective"
)

// DefaultLPTol is the acceptance tolerance of the LP certificate. It is
// deliberately looser than the solver's own numtol.LPFeasTol: the solver
// enforces its tolerances on the equilibrated problem, so unscaling can
// grow a residual by the row and column scale factors, and the
// certificate's job is to catch wrong answers, not to re-litigate the last
// ulps of a correct one.
const DefaultLPTol = 100 * numtol.LPFeasTol

// LPCertificate is the outcome of re-verifying an lp.Result against its
// problem: max-norm residuals of each optimality condition plus the named
// violations for any that exceed tolerance.
type LPCertificate struct {
	Report
	// PrimalResidual is the max row-range violation ‖Ax−b‖∞ (for ranged
	// rows, distance outside [rlb, rub]).
	PrimalResidual float64
	// BoundResidual is the max column-bound violation.
	BoundResidual float64
	// DualResidual is the max dual-feasibility (sign) violation over
	// reduced costs and row duals.
	DualResidual float64
	// DualityGap is the relative gap |c·x − dual objective| / (1+|c·x|).
	DualityGap float64
}

// LP checks the optimality certificate of res for problem p: primal
// feasibility (row ranges, column bounds), dual feasibility (reduced-cost
// and row-dual signs against at-bound status) and strong duality (primal
// and dual objectives agree). All algebra runs in the minimization
// convention; maximization problems are negated on entry. tol ≤ 0 selects
// DefaultLPTol.
func LP(p *lp.Problem, res lp.Result, tol float64) *LPCertificate {
	cert := &LPCertificate{}
	if tol <= 0 {
		tol = DefaultLPTol
	}
	if res.Status != lp.StatusOptimal {
		cert.addf(LPStatus, -1, "status %v: nothing to certify", res.Status)
		return cert
	}
	n, m := p.NumCols(), p.NumRows()
	if len(res.X) != n || len(res.Duals) != m {
		cert.addf(LPStatus, -1, "result dimensions (%d cols, %d duals) do not match problem (%d, %d)",
			len(res.X), len(res.Duals), n, m)
		return cert
	}
	negate := p.Sense == lp.Maximize
	cmin := make([]float64, n)
	for j := 0; j < n; j++ {
		if negate {
			cmin[j] = -p.Obj[j]
		} else {
			cmin[j] = p.Obj[j]
		}
	}
	ymin := make([]float64, m)
	for i := 0; i < m; i++ {
		if negate {
			ymin[i] = -res.Duals[i]
		} else {
			ymin[i] = res.Duals[i]
		}
	}

	// Row activities, primal residual, and yᵀA accumulated per column.
	act := make([]float64, m)
	yA := make([]float64, n)
	for i := 0; i < m; i++ {
		idx, val := p.Row(i)
		a := 0.0
		for k, j := range idx {
			a += val[k] * res.X[j]
			yA[j] += ymin[i] * val[k]
		}
		act[i] = a
		if r := math.Max(p.RowLB[i]-a, a-p.RowUB[i]); r > cert.PrimalResidual {
			cert.PrimalResidual = r
		}
		if math.Max(p.RowLB[i]-a, a-p.RowUB[i]) > tol*(1+math.Abs(a)) {
			cert.addf(LPRowResidual, -1, "row %d: activity %v outside [%v, %v]", i, a, p.RowLB[i], p.RowUB[i])
		}
	}

	// Column bounds.
	for j := 0; j < n; j++ {
		x := res.X[j]
		if r := math.Max(p.ColLB[j]-x, x-p.ColUB[j]); r > cert.BoundResidual {
			cert.BoundResidual = r
		}
		if math.Max(p.ColLB[j]-x, x-p.ColUB[j]) > tol*(1+math.Abs(x)) {
			cert.addf(LPBound, -1, "column %d: value %v outside [%v, %v]", j, x, p.ColLB[j], p.ColUB[j])
		}
	}

	// Dual feasibility of reduced costs d = c − Aᵀy against each column's
	// at-bound status: at lower → d ≥ 0, at upper → d ≤ 0, interior → d = 0
	// (all modulo tol). Fixed columns impose no sign.
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		d[j] = cmin[j] - yA[j]
		lb, ub := p.ColLB[j], p.ColUB[j]
		if ub-lb <= numtol.AtBoundTol*(1+math.Abs(lb)) {
			continue
		}
		x := res.X[j]
		atLB := !math.IsInf(lb, -1) && x-lb <= numtol.AtBoundTol*(1+math.Abs(lb))
		atUB := !math.IsInf(ub, 1) && ub-x <= numtol.AtBoundTol*(1+math.Abs(ub))
		viol := dualSignViolation(d[j], atLB, atUB)
		if viol > cert.DualResidual {
			cert.DualResidual = viol
		}
		if viol > tol*(1+math.Abs(cmin[j])) {
			cert.addf(LPDualSign, -1, "column %d: reduced cost %v inconsistent with at-bound status (atLB=%v atUB=%v)",
				j, d[j], atLB, atUB)
		}
	}
	// Row duals against the activity's at-bound status. The slack of row i
	// carries reduced cost y_i in the expanded system, so the same sign
	// rules apply with the range [rlb, rub] as its bounds.
	for i := 0; i < m; i++ {
		rlb, rub := p.RowLB[i], p.RowUB[i]
		if rub-rlb <= numtol.AtBoundTol*(1+math.Abs(rlb)) {
			continue
		}
		atLB := !math.IsInf(rlb, -1) && act[i]-rlb <= numtol.AtBoundTol*(1+math.Abs(rlb))
		atUB := !math.IsInf(rub, 1) && rub-act[i] <= numtol.AtBoundTol*(1+math.Abs(rub))
		viol := dualSignViolation(ymin[i], atLB, atUB)
		if viol > cert.DualResidual {
			cert.DualResidual = viol
		}
		if viol > tol*(1+math.Abs(ymin[i])) {
			cert.addf(LPDualSign, -1, "row %d: dual %v inconsistent with at-bound status (atLB=%v atUB=%v)",
				i, ymin[i], atLB, atUB)
		}
	}

	// Strong duality: evaluate the dual objective by charging each dual
	// multiplier to the bound its sign selects (complementary slackness
	// pairs each positive multiplier with an active lower bound and each
	// negative one with an active upper bound; a multiplier that selects an
	// infinite bound was already reported as a sign violation, so the
	// activity stands in to keep the gap finite).
	primal := 0.0
	for j := 0; j < n; j++ {
		primal += cmin[j] * res.X[j]
	}
	dual := 0.0
	for i := 0; i < m; i++ {
		dual += ymin[i] * chooseBound(ymin[i], p.RowLB[i], p.RowUB[i], act[i], tol)
	}
	for j := 0; j < n; j++ {
		dual += d[j] * chooseBound(d[j], p.ColLB[j], p.ColUB[j], res.X[j], tol)
	}
	cert.DualityGap = math.Abs(primal-dual) / (1 + math.Abs(primal))
	if cert.DualityGap > tol {
		cert.addf(LPDualityGap, -1, "primal %v vs dual %v (relative gap %v)", primal, dual, cert.DualityGap)
	}

	// Reported objective versus c·x + offset in the original sense.
	obj := p.ObjOffset
	for j := 0; j < n; j++ {
		obj += p.Obj[j] * res.X[j]
	}
	if math.Abs(obj-res.Obj) > tol*(1+math.Abs(obj)) {
		cert.addf(LPObjective, -1, "reported objective %v, recomputed %v", res.Obj, obj)
	}
	return cert
}

// dualSignViolation measures how far a multiplier strays from the sign its
// column/row status requires in the minimization convention.
func dualSignViolation(d float64, atLB, atUB bool) float64 {
	switch {
	case atLB && atUB:
		return 0 // degenerate range: either sign is consistent
	case atLB:
		return math.Max(0, -d)
	case atUB:
		return math.Max(0, d)
	default:
		return math.Abs(d)
	}
}

// chooseBound returns the bound a multiplier's sign charges in the dual
// objective: lower for positive, upper for negative, the current value for
// (numerically) zero or when the selected bound is infinite.
func chooseBound(mult, lb, ub, cur float64, tol float64) float64 {
	switch {
	case mult > tol && !math.IsInf(lb, -1):
		return lb
	case mult < -tol && !math.IsInf(ub, 1):
		return ub
	default:
		return cur
	}
}
