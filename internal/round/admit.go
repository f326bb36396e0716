package round

import (
	"math"
	"math/rand"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
)

// AdmitSample rounds the LP relaxation of one admission subproblem: every
// committed request keeps its pinned schedule and flows (their relaxation
// values are exact, the engine fixed their bounds), only the arriving
// request — index newIdx, the last one — is rounded. Flow candidates come
// from the same decomposition as the offline solve, stripped from the
// admission model's arc flows; the start is the
// earliest one that fits, found by walking the request forward over the
// violated intervals (deferral restricted to the new request: committed
// schedules must never move). Returns nil when no sample fits, in which
// case the caller proceeds to the exact branch-and-bound tier.
//
// The rel solution must be the optimum of b's relaxation; calls with a
// fractional acceptance x_R(new) < 1 return nil immediately (rounding the
// request up against a relaxation that would rather not take it whole is
// exactly the case the exact tier exists for).
func AdmitSample(b *core.Built, rel *model.Solution, newIdx int, seed int64, samples int) *solution.Solution {
	if rel == nil || !rel.HasSolution {
		return nil
	}
	if rel.Value(b.XR[newIdx]) < 1-numtol.MIPIntTol {
		return nil
	}
	cand := decomposeRequest(b, rel, pathColumns(b, rel), newIdx)
	if !cand.embeddable {
		return nil
	}
	base := b.Extract(rel) // non-nil: rel has a solution
	base.Warnings = nil    // fractional t⁻ disagreements are expected here
	base.Accepted[newIdx] = true

	req := b.Inst.Reqs[newIdx]
	latestStart := math.Max(req.Earliest, req.LatestStart())
	rng := rand.New(rand.NewSource(seed))
	if samples <= 0 {
		samples = DefaultSamples
	}
	var vs violationScan
	for s := 0; s <= samples; s++ {
		flows := make([][]float64, req.G.NumEdges())
		for lv := range flows {
			lc := &cand.links[lv]
			if s == 0 || len(lc.paths) <= 1 {
				flows[lv] = append([]float64(nil), lc.mix...)
			} else {
				flows[lv] = samplePath(lc, b.Inst.Sub.NumLinks(), rng)
			}
		}
		base.Flows[newIdx] = flows
		// Walk the start forward over violated intervals. The committed
		// system alone is feasible (engine invariant), so every violation
		// involves the new request and its interval ends after the current
		// start — each step makes strict progress.
		start := req.Earliest
		for iter := 0; iter <= 2*len(b.Inst.Reqs)+8; iter++ {
			base.Start[newIdx] = start
			base.End[newIdx] = start + req.Duration
			t2, _, found := vs.first(b.Inst, base)
			if !found {
				return base
			}
			if t2 > latestStart+numtol.WindowTol || t2 <= start {
				break // this flow choice cannot fit the window
			}
			start = math.Min(t2, latestStart)
		}
	}
	return nil
}
