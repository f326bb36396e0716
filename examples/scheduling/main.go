// Scheduling objectives on a fixed VNet set (Section IV-E-2/3): maximize
// earliness (start every job as soon as the network allows, weighted by an
// earliness fee) and balance node load over time (maximize the number of
// substrate nodes that never exceed half their capacity).
//
// A batch-processing pipeline of three jobs shares one small substrate; the
// example prints both optimal schedules side by side.
//
//	go run ./examples/scheduling
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

func job(name string, demand, earliest, duration, latest float64) *vnet.Request {
	return &vnet.Request{
		Name:       name,
		G:          graph.NewDigraph(1),
		NodeDemand: []float64{demand},
		LinkDemand: []float64{},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}

func main() {
	sub := substrate.Grid(1, 3, 1, 1)
	reqs := []*vnet.Request{
		job("etl", 1, 0, 2, 8),
		job("train", 1, 0, 3, 8),
		job("report", 1, 2, 1, 8),
	}
	// All three jobs pinned onto substrate node 1: they must time-share it.
	mapping := vnet.NodeMapping{{1}, {1}, {1}}
	inst := &core.Instance{Sub: sub, Reqs: reqs, Horizon: 8}
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Maximize earliness (every job as early as contention permits) ==")
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.MaxEarliness,
		FixedMapping: mapping,
	})
	sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
	if sol == nil {
		log.Fatalf("earliness solve failed: %v", ms.Status)
	}
	fmt.Printf("objective (fee) %.3f, status %v\n", sol.Objective, ms.Status)
	for r, req := range reqs {
		fmt.Printf("  %-7s [%.2f, %.2f] (earliest possible start %.2f)\n",
			req.Name, sol.Start[r], sol.End[r], req.Earliest)
	}

	fmt.Println("\n== Balance node load (maximize nodes never above 50% capacity) ==")
	// Free node mapping this time: the model may spread the jobs across the
	// three substrate nodes — but every node used above 50% costs a point.
	b = core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.BalanceNodeLoad,
		LoadFraction: 0.5,
	})
	sol, ms = b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 30 * time.Second})
	if sol == nil {
		log.Fatalf("balance solve failed: %v", ms.Status)
	}
	fmt.Printf("objective (nodes ≤ 50%% loaded) %.0f of %d, status %v\n",
		sol.Objective, sub.NumNodes(), ms.Status)
	for r, req := range reqs {
		fmt.Printf("  %-7s [%.2f, %.2f] on substrate node %d\n",
			req.Name, sol.Start[r], sol.End[r], sol.Hosts[r][0])
	}
}
