package certify

// Cut certificate: re-verifies every row a lazy cΣ solve appended through
// the separation pipeline (internal/core's precedence separator feeding
// internal/mip's cut pool). The Constraint-(20) family is re-enumerated
// here from the temporal dependency graph — independently of the enumeration
// internal/core shares between static emission and separation — and each
// applied cut must (a) be a member of that family and (b) hold at the
// incumbent. Because the incumbent is separately certified feasible against
// Definition 2.1 by the Solution certificate, a violated applied cut proves
// the pipeline excluded a certified-feasible solution.

import (
	"encoding/binary"
	"math"

	"tvnep/internal/core"
	"tvnep/internal/depgraph"
	"tvnep/internal/lp"
	"tvnep/internal/model"
)

// Cut-certificate violation classes.
const (
	// CutShape: an applied cut row is malformed (length mismatch, column
	// index outside the model).
	CutShape Kind = "cut-shape"
	// CutUnknown: an applied cut is not a member of the Constraint-(20)
	// family derived from the dependency graph.
	CutUnknown Kind = "cut-unknown"
	// CutExcludesFeasible: an applied cut is violated by the incumbent — the
	// separation pipeline cut off a certified-feasible solution.
	CutExcludesFeasible Kind = "cut-excludes-feasible"
)

// cutRowTol bounds the acceptable activity excess of an applied cut at the
// incumbent. Incumbents are LP-tolerance accurate, so this mirrors the
// feasibility slack the solver itself grants rows.
const cutRowTol = 1e-6

// Cuts re-verifies every applied cut of a cΣ solve. A build without applied
// cuts (static or off mode, or lazy with nothing separated) passes trivially.
// The model solution must carry an incumbent; callers certify it with
// Solution first, which is what gives CutExcludesFeasible its meaning.
func Cuts(b *core.Built, ms *model.Solution) *Report {
	rep := &Report{}
	if ms == nil || len(ms.AppliedCuts) == 0 {
		return rep
	}
	if b.Kind != core.CSigma {
		rep.addf(CutUnknown, -1, "applied cuts on a %v build; only cΣ separates cuts", b.Kind)
		return rep
	}
	known := precFamily(b)
	x := ms.X()
	n := b.Model.NumVars()
	for k, c := range ms.AppliedCuts {
		if len(c.Idx) != len(c.Val) || len(c.Idx) == 0 {
			rep.addf(CutShape, -1, "cut %d: %d indices, %d values", k, len(c.Idx), len(c.Val))
			continue
		}
		bad := false
		for _, j := range c.Idx {
			if int(j) < 0 || int(j) >= n {
				rep.addf(CutShape, -1, "cut %d: column %d outside model with %d variables", k, j, n)
				bad = true
			}
		}
		if bad {
			continue
		}
		if !known[cutRowKey(c.Idx, c.Val, c.LB, c.UB)] {
			rep.addf(CutUnknown, -1, "cut %d is not in the dependency-graph precedence family", k)
		}
		if x == nil {
			continue
		}
		act := 0.0
		for k, j := range c.Idx {
			act += c.Val[k] * x[j]
		}
		if act > c.UB+cutRowTol || act < c.LB-cutRowTol {
			rep.addf(CutExcludesFeasible, -1,
				"cut %d: incumbent activity %v outside [%v, %v]", k, act, c.LB, c.UB)
		}
	}
	return rep
}

// precFamily independently re-enumerates the Constraint-(20) rows from the
// dependency graph: for every positive-distance precedence (V, W, gap) and
// event index i in W's window, Σ_{j≤i} χ_W − Σ_{j≤i−gap} χ_V ≤ 0, as a set
// of canonical row encodings.
func precFamily(b *core.Built) map[string]bool {
	dg := depgraph.Build(b.Inst.Reqs)
	fam := make(map[string]bool)
	for _, pr := range dg.Precedences() {
		chiV, winV := chiSide(b, dg, pr.V)
		chiW, winW := chiSide(b, dg, pr.W)
		hi := winW.Hi
		if lim := winV.Hi + pr.Gap - 1; lim < hi {
			hi = lim
		}
		for i := winW.Lo; i <= hi; i++ {
			var idx []int32
			var val []float64
			for j := 0; j <= i && j < len(chiW); j++ {
				if chiW[j].Valid() {
					idx = append(idx, int32(chiW[j].Index()))
					val = append(val, 1)
				}
			}
			if len(idx) == 0 {
				continue
			}
			for j := 0; j <= i-pr.Gap && j < len(chiV); j++ {
				if chiV[j].Valid() {
					idx = append(idx, int32(chiV[j].Index()))
					val = append(val, -1)
				}
			}
			fam[cutRowKey(idx, val, math.Inf(-1), 0)] = true
		}
	}
	return fam
}

// chiSide selects the χ variable row and event window for one dependency
// node (start or end side of its request).
func chiSide(b *core.Built, dg *depgraph.Graph, node int) ([]model.Var, depgraph.Window) {
	r := depgraph.RequestOf(node)
	if depgraph.IsStartNode(node) {
		return b.ChiPlus[r], dg.StartWindow[r]
	}
	return b.ChiMinus[r], dg.EndWindow[r]
}

// cutRowKey canonicalizes a row (lp.Canonical: sorted by column, duplicates
// merged, exact zeros dropped) and encodes it into a collision-free string
// key, so rows compare structurally regardless of term order.
func cutRowKey(idx []int32, val []float64, lb, ub float64) string {
	idx, val = lp.Canonical(idx, val)
	buf := make([]byte, 0, 12*len(idx)+16)
	for k, j := range idx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(val[k]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lb))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ub))
	return string(buf)
}
