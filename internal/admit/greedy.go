package admit

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/vnet"
)

// ErrNoMapping is returned by Greedy when no fixed node mapping is supplied;
// the algorithm (as in the paper) requires node mappings as input.
var ErrNoMapping = errors.New("admit: cΣ_A^G requires a fixed node mapping")

// Greedy runs Algorithm cΣ_A^G of Section V offline: the polynomial-time
// heuristic for the access-control objective. It feeds the requests, stably
// sorted by earliest possible start, through one admission engine whose
// decisions re-route the committed link flows ("link allocations are
// re-optimized in every iteration"). Accepted requests keep their schedules
// in all later iterations (Constraint 24); rejected ones stay rejected with
// the Definition-2.1 fixed times (Constraint 25).
//
// The returned solution is indexed like inst.Reqs and carries the
// access-control objective, the run's node total and runtime, and no
// optimality claim: Optimal is false, Gap and Bound +Inf. Callers certify
// it. build supplies CutMode and DisablePresolve to every per-decision cΣ
// model, whose link flows are arc flows whatever build.FlowMode says. solve
// configures each per-decision solve; nil, or neither a time nor a node
// limit, means DefaultNodeLimit. Cancelling ctx stops the run and returns
// ctx.Err(); a nil ctx is treated as context.Background().
func Greedy(ctx context.Context, inst *core.Instance, mapping vnet.NodeMapping, build core.BuildOptions, solve *model.SolveOptions) (*solution.Solution, Stats, error) {
	var stats Stats
	if ctx == nil {
		ctx = context.Background()
	}
	if mapping == nil {
		return nil, stats, ErrNoMapping
	}
	k := len(inst.Reqs)
	if len(mapping) != k {
		return nil, stats, fmt.Errorf("admit: mapping covers %d of %d requests", len(mapping), k)
	}
	began := time.Now() //lint:allow nondet -- runtime accounting only; never branches the search
	sol := &solution.Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
		Hosts:    make([][]int, k),
		Flows:    make([][][]float64, k),
		Gap:      math.Inf(1),
		Bound:    math.Inf(1),
	}
	if k > 0 { // New rejects the zero horizon of an empty instance
		cfg := Config{Sub: inst.Sub, Horizon: inst.Horizon, CutMode: build.CutMode, DisablePresolve: build.DisablePresolve}
		if solve != nil {
			cfg.Solve = *solve
		}
		e, err := New(cfg)
		if err != nil {
			return nil, stats, err
		}
		e.reroute = true
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(inst.Reqs[a].Earliest, inst.Reqs[b].Earliest)
		})
		for _, r := range order {
			_, err := e.Admit(ctx, inst.Reqs[r], mapping[r])
			if err == nil {
				// A cancelled root LP can end a decision as a rejection;
				// only a run that was never cancelled is the answer.
				err = ctx.Err()
			}
			if err != nil {
				return nil, e.Stats(), err
			}
		}
		_, _, snap := e.Snapshot()
		for i, r := range order {
			sol.Accepted[r] = snap.Accepted[i]
			sol.Start[r] = snap.Start[i]
			sol.End[r] = snap.End[i]
			sol.Hosts[r] = snap.Hosts[i]
			sol.Flows[r] = snap.Flows[i]
		}
		sol.Objective = snap.Objective
		stats = e.Stats()
	}
	sol.Runtime = time.Since(began) //lint:allow nondet -- runtime accounting only
	return sol, stats, nil
}
