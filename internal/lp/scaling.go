package lp

import "math"

// Equilibration scaling. NewInstance rewrites the compiled matrix as
// A' = R·A·C where R and C hold per-row and per-column scale factors chosen
// by iterated geometric-mean equilibration and then rounded to the nearest
// power of two. The solver works entirely in scaled units; bounds, costs,
// solutions and duals cross the boundary in solver.reset and solver.result:
//
//	x'_j = x_j/c_j    s'_i = r_i·s_i    c'_j = c_j·obj_j    y_i = r_i·y'_i
//
// Power-of-two scales make every one of those transforms exact (multiplying
// by 2^k only changes the exponent), so objective values, certificates and
// duals are bit-identical to an unscaled formulation of the same solution —
// scaling changes the simplex trajectory, never the reported answer's
// meaning — and the scaled solve remains bit-deterministic across runs.
// Slack columns stay exact unit columns because the slack
// variables themselves are scaled by r_i.

const (
	// scalingSweeps is the number of row/column geometric-mean passes.
	scalingSweeps = 2
	// scalingMaxExp clamps scale factors to 2^±scalingMaxExp; equilibration
	// on pathological data must not overflow to ±Inf scales.
	scalingMaxExp = 40
	// scalingSpreadMin is the coefficient spread max|a|/min|a| below which a
	// matrix counts as well-ranged and is left unscaled. Equilibration exists
	// to rescue ill-conditioned inputs; on an already tame matrix it only
	// perturbs the pricing trajectory (measurably for the worse on the TVNEP
	// models, whose spread is ~10) while paying the scaled-view overhead on
	// every pivot row.
	scalingSpreadMin = 64
)

// pow2Round returns the power of two nearest to x in log space, clamped to
// 2^±scalingMaxExp. x must be positive and finite. With x = f·2^e and f in
// [1/2, 1), log2 x rounds to e when f ≥ 1/√2 and to e−1 below, so the
// exponent arithmetic decides it without a logarithm. Within pow2RoundGuard
// of 1/√2 the decision is left to log2Round, the expression the exponent
// arithmetic stands in for, so the result equals it wherever its rounding
// could tip.
func pow2Round(x float64) float64 {
	f, e := math.Frexp(x)
	if math.Abs(f-math.Sqrt2/2) <= pow2RoundGuard {
		return log2Round(x)
	}
	if f < math.Sqrt2/2 {
		e--
	}
	return math.Ldexp(1, max(-scalingMaxExp, min(scalingMaxExp, e)))
}

// pow2RoundGuard is the distance from 1/√2 within which pow2Round defers to
// log2Round: far wider than log2Round's own error, whose worst case is the
// rounding of log2 f + e at the largest exponents, about 2^-43 in f.
const pow2RoundGuard = 0x1p-36

// log2Round is pow2Round by its definition: round log2 x to the nearest
// integer, halves away from zero, and clamp.
func log2Round(x float64) float64 {
	e := math.Round(math.Log2(x))
	if e > scalingMaxExp {
		e = scalingMaxExp
	} else if e < -scalingMaxExp {
		e = -scalingMaxExp
	}
	return math.Exp2(e)
}

// equilibrate computes the power-of-two equilibration of the compiled
// matrix and applies it in place to the column-major storage (which
// compile just filled). If every rounded scale comes out as 1 — the
// common case for already well-ranged 0/±1 models — the instance is left
// unscaled and pays no overhead anywhere.
func (inst *Instance) equilibrate() {
	n, m := inst.n, inst.m
	if n == 0 || m == 0 {
		return
	}
	// Well-ranged matrices skip equilibration entirely (see scalingSpreadMin).
	lo, hi := math.Inf(1), 0.0
	for j := 0; j < n; j++ {
		for k := range inst.colIdx[j] {
			a := math.Abs(inst.colVal[j][k])
			if a == 0 {
				continue
			}
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
	}
	if hi == 0 || hi/lo < scalingSpreadMin {
		return
	}
	rs, cs := fitRoom(inst.rowScale, m, inst), fitRoom(inst.colScale, n, inst)
	inst.rowScale, inst.colScale = rs, cs
	for i := range rs {
		rs[i] = 1
	}
	for j := range cs {
		cs[j] = 1
	}
	// Iterated geometric-mean equilibration: each pass divides every row by
	// the (power-of-two-rounded) geometric mean of its current extreme
	// magnitudes, then every column likewise. Two passes settle the scales
	// on anything this solver meets; more sweeps only polish ulps.
	for sweep := 0; sweep < scalingSweeps; sweep++ {
		for i := 0; i < m; i++ {
			lo, hi := math.Inf(1), 0.0
			idx, val := inst.p.Row(i)
			for k, j := range idx {
				a := math.Abs(val[k]) * rs[i] * cs[j]
				if a == 0 {
					continue
				}
				if a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
			if hi > 0 {
				rs[i] = pow2Round(rs[i] / math.Sqrt(lo*hi))
			}
		}
		for j := 0; j < n; j++ {
			lo, hi := math.Inf(1), 0.0
			for k, i := range inst.colIdx[j] {
				a := math.Abs(inst.colVal[j][k]) * rs[i] * cs[j]
				if a == 0 {
					continue
				}
				if a < lo {
					lo = a
				}
				if a > hi {
					hi = a
				}
			}
			if hi > 0 {
				cs[j] = pow2Round(cs[j] / math.Sqrt(lo*hi))
			}
		}
	}
	identity := true
	for _, v := range rs {
		if v != 1 { //lint:allow floateq -- pow2Round yields exact powers of two; 1.0 is an exact no-op sentinel
			identity = false
			break
		}
	}
	if identity {
		for _, v := range cs {
			if v != 1 { //lint:allow floateq -- pow2Round yields exact powers of two; 1.0 is an exact no-op sentinel
				identity = false
				break
			}
		}
	}
	if identity {
		return
	}
	inst.scaled = true
	inst.colScaleInv = fitRoom(inst.colScaleInv, n, inst)
	for j := 0; j < n; j++ {
		inst.colScaleInv[j] = 1 / cs[j] // exact: cs[j] is a power of two
	}
	// Scale the column-major storage in place (just filled by compile).
	for j := 0; j < n; j++ {
		c := cs[j]
		for k, i := range inst.colIdx[j] {
			inst.colVal[j][k] *= rs[i] * c
		}
	}
	// Scaled row view of the compiled rows for the row-wise consumers
	// (pivotRow, warm-basis borders). Indices are shared with the Problem;
	// only the values need scaled copies.
	inst.baseRowVal = fitRoom(inst.baseRowVal, m, inst)
	back := fitRoom(inst.rowValBack, len(inst.valBack), inst)
	inst.rowValBack = back
	off := 0
	for i := 0; i < m; i++ {
		idx, val := inst.p.Row(i)
		row := back[off : off+len(val)]
		off += len(val)
		for k, j := range idx {
			row[k] = val[k] * rs[i] * cs[j]
		}
		inst.baseRowVal[i] = row
	}
}

// appendedRowScale picks the power-of-two scale for a row appended after
// compilation: the geometric mean of the row's column-scaled extreme
// magnitudes, matching what equilibrate would have chosen in one pass.
func (inst *Instance) appendedRowScale(idx []int32, val []float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for k, j := range idx {
		a := math.Abs(val[k])
		if inst.scaled {
			a *= inst.colScale[j]
		}
		if a == 0 {
			continue
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi == 0 {
		return 1
	}
	return pow2Round(1 / math.Sqrt(lo*hi))
}

// ScalingStats reports the equilibration's effect for diagnostics: whether
// scaling is active and the matrix coefficient spread max|a|/min|a| over
// nonzeros before and after scaling. Unscaled instances report equal
// spreads.
func (inst *Instance) ScalingStats() (scaled bool, spreadBefore, spreadAfter float64) {
	loB, hiB := math.Inf(1), 0.0
	loA, hiA := math.Inf(1), 0.0
	for j := 0; j < inst.n; j++ {
		for k, i := range inst.colIdx[j] {
			a := math.Abs(inst.colVal[j][k])
			if a == 0 {
				continue
			}
			if a < loA {
				loA = a
			}
			if a > hiA {
				hiA = a
			}
			b := a
			if inst.scaled {
				b = a * inst.colScaleInv[j] / inst.rowScale[i]
			}
			if b < loB {
				loB = b
			}
			if b > hiB {
				hiB = b
			}
		}
	}
	if hiB == 0 {
		return inst.scaled, 1, 1
	}
	return inst.scaled, hiB / loB, hiA / loA
}
