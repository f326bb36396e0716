package lp_test

import (
	"math"
	"testing"

	"tvnep/internal/certify"
	"tvnep/internal/lp"
)

// decodeBoxedLP deterministically turns a fuzz byte string into a small
// boxed LP: every column has finite bounds, every coefficient is a small
// integer. Finite boxes rule out unboundedness, so the only legal verdicts
// are Optimal and Infeasible — which makes the verdict comparison in
// FuzzLPWideSpread exact.
func decodeBoxedLP(data []byte) *lp.Problem {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	p := lp.NewProblem()
	if next()%2 == 1 {
		p.Sense = lp.Maximize
	}
	n := 1 + int(next()%6)
	m := int(next() % 5)
	for j := 0; j < n; j++ {
		obj := float64(int8(next())%8) / 2
		lb := float64(int8(next()) % 5)
		width := float64(next() % 6)
		p.AddCol(obj, lb, lb+width)
	}
	for i := 0; i < m; i++ {
		kind := next() % 3
		rhs := float64(int8(next()) % 10)
		var idx []int32
		var val []float64
		for j := 0; j < n; j++ {
			a := float64(int8(next())%7 - 3)
			if a == 0 {
				continue
			}
			idx = append(idx, int32(j))
			val = append(val, a)
		}
		if len(idx) == 0 {
			continue
		}
		switch kind {
		case 0:
			p.AddLE(idx, val, rhs)
		case 1:
			p.AddGE(idx, val, rhs)
		default:
			p.AddEQ(idx, val, rhs)
		}
	}
	return p
}

// wideSpreadExp decodes one scaling exponent in [−12, 12] from a byte.
func wideSpreadExp(b byte) int { return int(b%25) - 12 }

// scaleLP returns an exactly equivalent copy of p: column j is substituted
// as x_j = 2^c_j·y_j and row i is multiplied by 2^r_i, with the exponents
// drawn from exps (columns first, then rows; 0 once exps runs out). Every
// factor is a power of two, so the copy's coefficients, bounds and
// objective are exact and its optimum equals p's.
func scaleLP(p *lp.Problem, exps []byte) *lp.Problem {
	pos := 0
	next := func() float64 {
		if pos >= len(exps) {
			return 1
		}
		e := wideSpreadExp(exps[pos])
		pos++
		return math.Ldexp(1, e)
	}
	q := lp.NewProblem()
	q.Sense = p.Sense
	q.ObjOffset = p.ObjOffset
	cs := make([]float64, p.NumCols())
	for j := range cs {
		cs[j] = next()
		q.AddCol(p.Obj[j]*cs[j], p.ColLB[j]/cs[j], p.ColUB[j]/cs[j])
	}
	for i := 0; i < p.NumRows(); i++ {
		r := next()
		idx, val := p.Row(i)
		sv := make([]float64, len(val))
		for k, j := range idx {
			sv[k] = r * val[k] * cs[j]
		}
		q.AddRow(idx, sv, r*p.RowLB[i], r*p.RowUB[i])
	}
	return q
}

// wideSpreadSeeds are FuzzLPWideSpread's seed corpus; the last one pushes
// the coefficient spread past the equilibration threshold and has an
// optimum to certify (TestWideSpreadSeedScales pins both).
var wideSpreadSeeds = [][2][]byte{
	{{}, {}},
	{{0, 3, 3, 2, 0, 4, 1, 1, 3, 6, 2, 2, 5, 1, 5, 4, 2, 1, 8, 4, 5, 6, 0, 2, 7, 5, 6, 4}, {0, 24, 6, 18, 24, 0}},
	{{0, 5, 4, 6, 1, 2, 250, 3, 4, 8, 2, 2, 5, 9, 1, 7, 3, 253, 0, 4, 6, 1, 8, 2, 5, 0, 3}, {24, 0, 24, 0, 24, 0, 24, 0, 24}},
	{{1, 2, 3, 200, 100, 5, 4, 4, 4, 2, 6, 1, 1, 1, 1, 0, 9, 250, 250, 250}, {7, 19, 2, 22, 11, 5}},
	{{1, 3, 2, 4, 250, 3, 2, 1, 0, 2, 7, 1, 5, 255, 2, 9, 3, 1}, {0, 24, 12, 3}},
}

// FuzzLPWideSpread cross-validates the solver against exact rescalings: on
// every decoded boxed LP p and its copy q with rows and columns scaled by
// powers of two up to 2^±12 — a coefficient spread far beyond the
// equilibration threshold — both solves must reach the same verdict, the
// same optimum, and q's answer must pass the independent LP certificate.
func FuzzLPWideSpread(f *testing.F) {
	for _, s := range wideSpreadSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, data, exps []byte) {
		if len(data) > 256 || len(exps) > 64 {
			return
		}
		p := decodeBoxedLP(data)
		q := scaleLP(p, exps)
		rp := lp.Solve(p, nil)
		rq := lp.Solve(q, nil)
		if rp.Status == lp.StatusIterLimit || rq.Status == lp.StatusIterLimit {
			return // pathological cycling guard; nothing to compare
		}
		if rp.Status != rq.Status {
			t.Fatalf("status %v, scaled copy status %v", rp.Status, rq.Status)
		}
		if rp.Status != lp.StatusOptimal {
			return
		}
		if diff := math.Abs(rp.Obj - rq.Obj); diff > 1e-6*(1+math.Abs(rp.Obj)) {
			t.Fatalf("objective %v, scaled copy objective %v (diff %g)", rp.Obj, rq.Obj, diff)
		}
		if cert := certify.LP(q, rq, 0); cert.Err() != nil {
			t.Fatalf("scaled copy's result failed the LP certificate: %v", cert.Err())
		}
	})
}

// TestWideSpreadSeedScales pins that the fuzz corpus exercises
// equilibration: the last seed's scaled copy must be scaled by the solver
// and solve to an optimum, so the certificate runs on an unscaled answer.
func TestWideSpreadSeedScales(t *testing.T) {
	s := wideSpreadSeeds[len(wideSpreadSeeds)-1]
	q := scaleLP(decodeBoxedLP(s[0]), s[1])
	if scaled, before, _ := lp.NewInstance(q).ScalingStats(); !scaled {
		t.Fatalf("seed's scaled copy (spread %g) left unscaled", before)
	}
	if res := lp.Solve(q, nil); res.Status != lp.StatusOptimal {
		t.Fatalf("seed's scaled copy: status %v, want optimal", res.Status)
	}
}
