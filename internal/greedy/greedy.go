// Package greedy implements Algorithm cΣ_A^G of Section V: a fast
// polynomial-time heuristic for the access-control objective. Requests are
// processed in order of earliest possible start; each iteration solves a
// small cΣ model in which every previously decided request has a fixed
// schedule, with the objective
//
//	max  T·x_R(L[i]) + (T − t⁻_{L[i]})
//
// which accepts the request whenever possible and otherwise/additionally
// finishes it as early as possible. Accepted requests keep their assigned
// schedule in all later iterations (Constraint 24); rejected requests stay
// rejected (Constraint 25) with their times fixed as Definition 2.1
// requires. Link allocations are re-optimized in every iteration.
package greedy

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// Stats reports per-run statistics.
type Stats struct {
	Iterations    int
	TotalRuntime  time.Duration
	MaxIterTime   time.Duration
	TotalLPIters  int
	TotalBBNodes  int
	AcceptedCount int
}

// ErrNoMapping is returned when no fixed node mapping is supplied; the
// algorithm (as in the paper) requires node mappings as input.
var ErrNoMapping = errors.New("greedy: cΣ_A^G requires a fixed node mapping")

// Solve runs cΣ_A^G on the instance. The returned solution is indexed like
// inst.Reqs. build carries the per-iteration cΣ builder configuration
// (CutMode, FlowMode, DisablePresolve — the objective, mapping and
// force-accept/reject fields are owned by the algorithm and overwritten);
// solve configures each per-request MIP solve, whose TimeLimit bounds a
// single iteration (nil or a nonpositive limit defaults to 30 s — the models
// are tiny because all but one request is fixed). Cancelling ctx stops the
// run between (and cooperatively within) iterations, returning ctx.Err(); a
// nil ctx is treated as context.Background().
func Solve(ctx context.Context, inst *core.Instance, mapping vnet.NodeMapping, build core.BuildOptions, solve *model.SolveOptions) (*solution.Solution, Stats, error) {
	var stats Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if mapping == nil {
		return nil, stats, ErrNoMapping
	}
	var so model.SolveOptions
	if solve != nil {
		so = *solve
	}
	if so.TimeLimit <= 0 {
		so.TimeLimit = 30 * time.Second
	}
	start := time.Now() //lint:allow nondet -- runtime accounting only; never branches the search
	k := len(inst.Reqs)

	// Working copies: accepted requests get their windows pinned to the
	// assigned schedule, rejected ones to their earliest slot.
	work := make([]*vnet.Request, k)
	for r, req := range inst.Reqs {
		cp := *req
		work[r] = &cp
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return inst.Reqs[order[a]].Earliest < inst.Reqs[order[b]].Earliest
	})

	accepted := make([]bool, k)
	rejected := make([]bool, k)
	var last *solution.Solution
	var considered []int // original indices, in processing order

	for _, cur := range order {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		considered = append(considered, cur)
		subReqs := make([]*vnet.Request, len(considered))
		subMap := make(vnet.NodeMapping, len(considered))
		forceAccept := make([]bool, len(considered))
		forceReject := make([]bool, len(considered))
		curSub := -1
		for i, orig := range considered {
			subReqs[i] = work[orig]
			subMap[i] = mapping[orig]
			forceAccept[i] = accepted[orig]
			forceReject[i] = rejected[orig]
			if orig == cur {
				curSub = i
			}
		}
		subInst := &core.Instance{Sub: inst.Sub, Reqs: subReqs, Horizon: inst.Horizon}
		bo := build
		bo.Objective = core.AccessControl // placeholder; replaced below
		bo.FixedMapping = subMap
		bo.ForceAccept = forceAccept
		bo.ForceReject = forceReject
		b := core.BuildCSigma(subInst, bo)
		// Objective (21): max T·x_R(cur) + (T − t⁻_cur).
		T := inst.Horizon
		b.SetObjective(model.Expr().
			Add(T, b.XR[curSub]).
			Add(-1, b.TMinus[curSub]).
			AddConst(T))

		iterStart := time.Now() //lint:allow nondet -- per-iteration timing stat
		sol, ms := b.Solve(ctx, &so)
		iterTime := time.Since(iterStart) //lint:allow nondet -- per-iteration timing stat
		stats.Iterations++
		stats.TotalLPIters += ms.LPIterations
		stats.TotalBBNodes += ms.Nodes
		if iterTime > stats.MaxIterTime {
			stats.MaxIterTime = iterTime
		}

		acceptCur := sol != nil && sol.Accepted[curSub]
		if sol == nil {
			// Retry with the current request explicitly rejected; the
			// remaining fixed-schedule system is feasible by induction.
			forceReject[curSub] = true // bo.ForceReject aliases this slice
			b = core.BuildCSigma(subInst, bo)
			b.SetObjective(model.Expr().Add(-1, b.TMinus[curSub]).AddConst(T))
			// The retry burns real solver work; fold its statistics into the
			// run totals instead of discarding them with the model solution.
			var retry *model.Solution
			sol, retry = b.Solve(ctx, &so)
			stats.TotalLPIters += retry.LPIterations
			stats.TotalBBNodes += retry.Nodes
			if sol == nil {
				if err := ctx.Err(); err != nil {
					return nil, stats, err
				}
				return nil, stats, errors.New("greedy: fixed-schedule subproblem infeasible (solver failure)")
			}
		}
		if acceptCur {
			accepted[cur] = true
			// Pin the schedule exactly. Pinned times are LP-tolerance
			// accurate; the tie-epsilon in the dependency graph keeps
			// later subproblems from treating ulp-level orderings as hard
			// precedences.
			work[cur].Earliest = sol.Start[curSub]
			work[cur].Latest = sol.End[curSub]
			stats.AcceptedCount++
		} else {
			rejected[cur] = true
			work[cur].Latest = work[cur].Earliest + work[cur].Duration
		}
		last = remapSolution(sol, considered, k)
	}
	stats.TotalRuntime = time.Since(start) //lint:allow nondet -- runtime accounting only
	if last == nil {                       // zero requests
		last = &solution.Solution{}
	}
	// The last subproblem's solver metadata describes objective (21), not
	// access control, and greedy proves no bound: report the run totals
	// and no optimality claim, and recompute the access-control objective.
	last.Optimal = false
	last.Gap = math.Inf(1)
	last.Bound = math.Inf(1)
	last.Nodes = stats.TotalBBNodes
	last.Runtime = stats.TotalRuntime
	last.Objective = 0
	for r, req := range inst.Reqs {
		if last.Accepted[r] {
			last.Objective += req.Duration * req.TotalNodeDemand()
		}
	}
	return last, stats, nil
}

// remapSolution expands a subproblem solution's schedule (indexed by
// `considered`) into full-instance indexing; the solver metadata is left
// for Solve to fill in. Requests not yet considered are marked rejected
// with zeroed times; callers only read the final, complete iteration.
func remapSolution(sub *solution.Solution, considered []int, k int) *solution.Solution {
	out := &solution.Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
		Hosts:    make([][]int, k),
		Flows:    make([][][]float64, k),
	}
	for i, orig := range considered {
		out.Accepted[orig] = sub.Accepted[i]
		out.Start[orig] = sub.Start[i]
		out.End[orig] = sub.End[i]
		out.Hosts[orig] = sub.Hosts[i]
		out.Flows[orig] = sub.Flows[i]
	}
	return out
}
