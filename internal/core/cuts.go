package core

// Lazy separation of the cΣ-Model's pairwise precedence cuts. The static
// build emits every Constraint-(20) row up front — O(|R|²) precedence pairs
// times O(|R|) event indices — even though on most instances only a small
// fraction ever binds. In CutLazy mode the same enumeration runs once at
// build time to precompute the candidate rows, but none become LP rows;
// instead a separator hands the branch-and-bound solver the members a
// fractional relaxation point violates, and the solver's cut pool appends
// them incrementally (internal/mip, internal/lp).

import (
	"tvnep/internal/depgraph"
	"tvnep/internal/model"
)

// forEachPrecRow enumerates the Constraint-(20) rows exactly as the static
// cΣ build emits them: for every positive-distance precedence (V, W, gap)
// and every event index i in W's window (capped so the χ_V prefix is
// non-vacuous), the row Σ_{j≤i} χ_W − Σ_{j≤i−gap} χ_V ≤ 0. Static emission
// and lazy separation share this single enumeration, so the two modes
// reason about the identical cut family. lhs is the builder's scratch row,
// valid only during the call.
func forEachPrecRow(b *Built, dg *depgraph.Graph, startWin, endWin []depgraph.Window, fn func(lhs *model.LinExpr, key model.Key)) {
	for _, pr := range dg.Precedences() {
		chiV := b.ChiPlus[depgraph.RequestOf(pr.V)]
		winV := startWin[depgraph.RequestOf(pr.V)]
		if !depgraph.IsStartNode(pr.V) {
			chiV = b.ChiMinus[depgraph.RequestOf(pr.V)]
			winV = endWin[depgraph.RequestOf(pr.V)]
		}
		chiW := b.ChiPlus[depgraph.RequestOf(pr.W)]
		winW := startWin[depgraph.RequestOf(pr.W)]
		if !depgraph.IsStartNode(pr.W) {
			chiW = b.ChiMinus[depgraph.RequestOf(pr.W)]
			winW = endWin[depgraph.RequestOf(pr.W)]
		}
		hi := winW.Hi
		if lim := winV.Hi + pr.Gap - 1; lim < hi {
			hi = lim
		}
		for i := winW.Lo; i <= hi; i++ {
			lhs := b.row.Reset()
			addChiUpTo(lhs, 1, chiW, i)
			if lhs.Len() == 0 {
				continue
			}
			addChiUpTo(lhs, -1, chiV, i-pr.Gap)
			fn(lhs, model.Key3("prec", pr.V, pr.W, i))
		}
	}
}

// precSeparator lazily separates the precedence cut family. cands is the
// full precomputed candidate list in the deterministic build-time
// enumeration order; Separate scans it and returns the violated members —
// a pure function of x, as the mip.Separator contract requires. Every
// candidate is globally valid: the windows-never-exclude-a-feasible-schedule
// property (tested in internal/depgraph) guarantees no integral embedding
// is cut off.
type precSeparator struct {
	cands []model.Cut
}

// precSeedSlack is the activity margin within which an unviolated candidate
// is still offered to the solver's cut pool: the pool's root seeding round
// (internal/mip) appends near-active rows alongside violated ones, so the
// tree search starts from the same strengthened root a static build would
// give. The margin matches the pool's rootCutSeedSlack.
const precSeedSlack = 0.5

// Separate implements model.Separator: it returns the candidates x violates
// plus the near-active ones (within precSeedSlack of binding), which the
// pool appends only during root seeding.
func (ps *precSeparator) Separate(x []float64) []model.Cut {
	var out []model.Cut
	for _, c := range ps.cands {
		act := 0.0
		for k, j := range c.Idx {
			act += c.Val[k] * x[j]
		}
		if act > c.UB-precSeedSlack {
			out = append(out, c)
		}
	}
	return out
}

// registerPrecSeparator precomputes the Constraint-(20) candidate rows and
// registers the separator on the built model (CutLazy mode).
func (b *Built) registerPrecSeparator(dg *depgraph.Graph, startWin, endWin []depgraph.Window) {
	ps := &precSeparator{}
	forEachPrecRow(b, dg, startWin, endWin, func(lhs *model.LinExpr, _ model.Key) {
		ps.cands = append(ps.cands, model.CutLE(lhs, 0))
	})
	b.precCandidates = len(ps.cands)
	if len(ps.cands) > 0 {
		b.Model.RegisterSeparator(ps)
	}
}

// PrecCutCandidates reports the size of the lazily separated Constraint-(20)
// family (0 unless the model was built with CutLazy). It equals the number
// of rows CutStatic would have emitted, which is what the row-count
// accounting in internal/eval reports as the saving.
func (b *Built) PrecCutCandidates() int { return b.precCandidates }
