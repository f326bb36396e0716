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
// are Optimal and Infeasible — which makes the presolve/no-presolve
// comparison in FuzzPresolveRoundTrip exact.
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

// FuzzPresolveRoundTrip cross-validates the presolve layer: lp.Solve runs
// the reduction passes and postsolves the answer back, Instance.Solve
// bypasses presolve entirely. On every decoded boxed LP the two paths must
// agree on the verdict, agree on the optimum, and the presolved path's
// postsolved result (values, duals, basis) must pass the independent LP
// certificate — primal/dual feasibility and strong duality on the ORIGINAL
// problem.
func FuzzPresolveRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 4, 250, 3, 2, 1, 0, 2, 7, 1, 5, 255, 2, 9, 3, 1})
	f.Add([]byte{0, 5, 4, 6, 1, 2, 250, 3, 4, 8, 2, 2, 5, 9, 1, 7, 3, 253, 0, 4, 6, 1, 8, 2, 5, 0, 3})
	f.Add([]byte{1, 2, 3, 200, 100, 5, 4, 4, 4, 2, 6, 1, 1, 1, 1, 0, 9, 250, 250, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		p := decodeBoxedLP(data)
		pre := lp.Solve(p, nil)
		raw := lp.NewInstance(p).Solve(nil)
		if pre.Status == lp.StatusIterLimit || raw.Status == lp.StatusIterLimit {
			return // pathological cycling guard; nothing to compare
		}
		if pre.Status != raw.Status {
			t.Fatalf("presolved status %v, direct status %v", pre.Status, raw.Status)
		}
		if pre.Status != lp.StatusOptimal {
			return
		}
		scale := 1 + math.Abs(raw.Obj)
		if diff := math.Abs(pre.Obj - raw.Obj); diff > 1e-6*scale {
			t.Fatalf("presolved objective %v, direct objective %v (diff %g)", pre.Obj, raw.Obj, diff)
		}
		if cert := certify.LP(p, pre, 0); cert.Err() != nil {
			t.Fatalf("postsolved result failed the LP certificate: %v", cert.Err())
		}
		if cert := certify.LP(p, raw, 0); cert.Err() != nil {
			t.Fatalf("direct result failed the LP certificate: %v", cert.Err())
		}
	})
}
