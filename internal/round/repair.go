package round

import (
	"math"
	"math/rand"

	"tvnep/internal/certify"
	"tvnep/internal/core"
	"tvnep/internal/numtol"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// drawSample rounds the decomposition into one integral candidate
// solution. Sample 0 is fully deterministic (threshold acceptance, argmax
// start, re-mixed fractional flows); later samples draw acceptance,
// start time and one substrate path per virtual link from the LP-induced
// distributions. Returns nil when a fixed-set objective meets a request
// whose flow decomposition failed (no sample can embed it).
func drawSample(inst *core.Instance, mapping vnet.NodeMapping, cands []reqCand, obj core.Objective, deterministic bool, rng *rand.Rand) *solution.Solution {
	k := len(inst.Reqs)
	sol := &solution.Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
		Hosts:    make([][]int, k),
		Flows:    make([][][]float64, k),
	}
	for r, req := range inst.Reqs {
		c := &cands[r]
		accept := c.embeddable
		if accept && obj == core.AccessControl {
			if deterministic {
				accept = c.xr >= halfMass
			} else {
				accept = rng.Float64() < c.xr
			}
		} else if !deterministic {
			rng.Float64() // keep the stream aligned across samples
		}
		if !c.embeddable && obj.FixedSet() {
			return nil
		}
		sol.Hosts[r] = append([]int(nil), mapping[r]...)
		if deterministic {
			sol.Start[r] = argmaxStart(c.starts)
		} else {
			sol.Start[r] = sampleStart(c.starts, rng)
		}
		sol.End[r] = sol.Start[r] + req.Duration
		flows := make([][]float64, req.G.NumEdges())
		for lv := range flows {
			if !accept {
				flows[lv] = make([]float64, inst.Sub.NumLinks())
				continue
			}
			lc := &c.links[lv]
			if deterministic || len(lc.paths) <= 1 {
				flows[lv] = append([]float64(nil), lc.mix...)
			} else {
				flows[lv] = samplePath(lc, inst.Sub.NumLinks(), rng)
			}
		}
		sol.Accepted[r] = accept
		sol.Flows[r] = flows
		if !accept {
			sol.Start[r] = req.Earliest
			sol.End[r] = req.Earliest + req.Duration
		}
	}
	return sol
}

// argmaxStart picks the heaviest candidate start, earliest on ties.
func argmaxStart(starts []startCand) float64 {
	best := starts[0]
	for _, s := range starts[1:] {
		if s.w > best.w+numtol.TieEps {
			best = s
		}
	}
	return best.t
}

// sampleStart draws a start time from the χ⁺ distribution.
func sampleStart(starts []startCand, rng *rand.Rand) float64 {
	u := rng.Float64()
	acc := 0.0
	for _, s := range starts {
		acc += s.w
		if u < acc {
			return s.t
		}
	}
	return starts[len(starts)-1].t
}

// samplePath draws one substrate path from the link's decomposition and
// returns it as an integral 0/1 flow vector.
func samplePath(lc *linkCand, numLinks int, rng *rand.Rand) []float64 {
	flow := make([]float64, numLinks)
	u := rng.Float64()
	acc := 0.0
	chosen := len(lc.paths) - 1
	for i, p := range lc.paths {
		acc += p.w
		if u < acc {
			chosen = i
			break
		}
	}
	for _, e := range lc.paths[chosen].edges {
		flow[e] = 1
	}
	return flow
}

// firstViolation takes the first event interval, in time order, whose node
// or link capacity is exceeded (the sweep certify judges, tolerances
// included) and returns its end, together with the active requests
// contributing load to the first overbooked resource (nodes first, then
// links, both in index order — a fixed scan order keeps repair
// deterministic).
func firstViolation(inst *core.Instance, sol *solution.Solution) (intervalEnd float64, contributors []int, found bool) {
	var vs violationScan
	return vs.first(inst, sol)
}

// violationScan is firstViolation with scratch kept across calls, for a
// loop that scans one schedule after another: its sweep buffers and its
// contributor list, which first returns and its next call overwrites.
type violationScan struct {
	sw       solution.Sweeper
	contribs []int
}

// first is firstViolation over the scan's scratch.
func (vs *violationScan) first(inst *core.Instance, sol *solution.Solution) (intervalEnd float64, contributors []int, found bool) {
	sub := inst.Sub
	contributors = vs.contribs[:0]
	vs.sw.Sweep(sub, inst.Reqs, sol, func(iv *solution.Interval) bool {
		for ns, load := range iv.NodeLoad {
			if load > sub.NodeCap[ns]+numtol.CapTol {
				for _, r := range iv.Active {
					for v, host := range sol.Hosts[r] {
						if host == ns && inst.Reqs[r].NodeDemand[v] > 0 {
							contributors = append(contributors, r)
							break
						}
					}
				}
				intervalEnd, found = iv.End, true
				return false
			}
		}
		for ls, load := range iv.LinkLoad {
			if load > sub.LinkCap[ls]+numtol.CapTol {
				for _, r := range iv.Active {
					for lv, flow := range sol.Flows[r] {
						if flow[ls] > numtol.FlowTol && inst.Reqs[r].LinkDemand[lv] > 0 {
							contributors = append(contributors, r)
							break
						}
					}
				}
				intervalEnd, found = iv.End, true
				return false
			}
		}
		return true
	})
	vs.contribs = contributors
	return intervalEnd, contributors, found
}

// repairSample resolves capacity violations by deferring contributors
// within their flexibility windows: the contributor with the most
// remaining slack that can still start at the violated interval's end is
// pushed to exactly that end (aligning it with an existing event); among
// contributors tied on slack, the one that started last, whose start made
// the overlap, is deferred (the lowest index on a further tie). When no
// contributor can defer, the access-control objective rejects the
// cheapest contributor instead; fixed-set objectives fail the sample. The
// iteration guard bounds pathological defer chains — on overflow the
// sample is abandoned and the caller moves on (or falls back to B&B).
func repairSample(inst *core.Instance, sol *solution.Solution, obj core.Objective) (repairs, rejections int, ok bool) {
	var vs violationScan
	return vs.repair(inst, sol, obj)
}

// repair is repairSample over the scan's scratch.
func (vs *violationScan) repair(inst *core.Instance, sol *solution.Solution, obj core.Objective) (repairs, rejections int, ok bool) {
	maxIter := 16 + 8*len(inst.Reqs)
	for iter := 0; ; iter++ {
		t2, contribs, found := vs.first(inst, sol)
		if !found {
			return repairs, rejections, true
		}
		if iter >= maxIter {
			return repairs, rejections, false
		}
		best, bestRoom := -1, 0.0
		for _, r := range contribs {
			latestStart := inst.Reqs[r].LatestStart()
			if latestStart+numtol.WindowTol < t2 {
				continue // cannot start after the violated interval
			}
			room := latestStart - sol.Start[r]
			switch {
			case room > bestRoom+numtol.TieEps:
				best, bestRoom = r, room
			case best >= 0 && room >= bestRoom-numtol.TieEps && sol.Start[r] > sol.Start[best]+numtol.TieEps:
				best = r
			}
		}
		if best >= 0 {
			ns := math.Min(t2, inst.Reqs[best].LatestStart())
			sol.Start[best] = ns
			sol.End[best] = ns + inst.Reqs[best].Duration
			repairs++
			continue
		}
		if obj.FixedSet() {
			return repairs, rejections, false
		}
		// Reject the contributor with the smallest revenue (ties to the
		// lowest index, for determinism).
		worst, minRev := -1, math.Inf(1)
		for _, r := range contribs {
			if rev := inst.Reqs[r].Duration * inst.Reqs[r].TotalNodeDemand(); rev < minRev-numtol.TieEps {
				worst, minRev = r, rev
			}
		}
		if worst < 0 {
			return repairs, rejections, false
		}
		sol.Accepted[worst] = false
		sol.Start[worst] = inst.Reqs[worst].Earliest
		sol.End[worst] = sol.Start[worst] + inst.Reqs[worst].Duration
		rejections++
	}
}

// scoreSample recomputes the objective exactly as the independent
// certificate does and reports whether the repaired sample is feasible.
// Feeding the candidate through certify itself (ignoring only the
// objective-mismatch class, since the objective is what is being computed)
// guarantees that any sample this returns feasible will later pass
// certify.Solution with zero violations.
func scoreSample(inst *core.Instance, mapping vnet.NodeMapping, sol *solution.Solution, obj core.Objective, loadFraction float64) (float64, bool) {
	rep := certify.Solution(inst, sol, certify.Options{
		Objective:    obj,
		LoadFraction: loadFraction,
		Mapping:      mapping,
	})
	for _, v := range rep.Violations {
		if v.Kind != certify.Objective {
			return 0, false
		}
	}
	sol.Objective = rep.RecomputedObjective
	return rep.RecomputedObjective, true
}
