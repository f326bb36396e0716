// Datacenter admission control: the paper's headline scenario. A day's
// worth of virtual-cluster requests (star topologies, Poisson arrivals,
// Weibull durations) arrives at a grid datacenter network; the operator
// maximizes revenue by deciding which VNets to admit and when to run them.
//
// The example contrasts three operating points on the same workload:
//
//  1. no temporal flexibility (every request must start on arrival),
//
//  2. flexible requests solved exactly with the cΣ-Model,
//
//  3. flexible requests admitted by the fast greedy cΣ_A^G.
//
//     go run ./examples/datacenter
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tvnep/internal/admit"
	"tvnep/internal/core"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/workload"
)

func solveExact(sc *workload.Scenario) *solution.Solution {
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.AccessControl,
		FixedMapping: sc.Mapping,
	})
	sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 90 * time.Second})
	if sol == nil {
		log.Fatalf("exact solve failed: %v", ms.Status)
	}
	if err := solution.Check(sc.Substrate, sc.Requests, sol); err != nil {
		log.Fatalf("exact solution failed verification: %v", err)
	}
	return sol
}

func main() {
	cfg := workload.Default()
	cfg.GridRows, cfg.GridCols = 2, 2
	cfg.NumRequests = 5
	const seed = 47

	fmt.Println("== Rigid requests (flexibility 0) ==")
	rigid := workload.Generate(cfg, seed)
	rigidSol := solveExact(rigid)
	fmt.Printf("accepted %d/%d requests, revenue %.2f\n\n",
		rigidSol.NumAccepted(), len(rigid.Requests), rigidSol.Objective)

	fmt.Println("== Flexible requests (3 h slack), exact cΣ-Model ==")
	cfg.FlexibilityHr = 3 // 180 minutes of slack per request
	flex := workload.Generate(cfg, seed)
	flexSol := solveExact(flex)
	fmt.Printf("accepted %d/%d requests, revenue %.2f (%.1f%% over rigid)\n",
		flexSol.NumAccepted(), len(flex.Requests), flexSol.Objective,
		100*(flexSol.Objective-rigidSol.Objective)/rigidSol.Objective)
	for r, req := range flex.Requests {
		mark := "✗"
		if flexSol.Accepted[r] {
			mark = "✓"
		}
		fmt.Printf("  %s %-4s window [%5.2f, %5.2f]  scheduled [%5.2f, %5.2f]  d=%.2f\n",
			mark, req.Name, req.Earliest, req.Latest, flexSol.Start[r], flexSol.End[r], req.Duration)
	}

	fmt.Println("\n== Flexible requests, greedy cΣ_A^G ==")
	inst := &core.Instance{Sub: flex.Substrate, Reqs: flex.Requests, Horizon: flex.Horizon}
	gsol, gstats, err := admit.Greedy(context.Background(), inst, flex.Mapping, core.BuildOptions{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := solution.Check(flex.Substrate, flex.Requests, gsol); err != nil {
		log.Fatalf("greedy solution failed verification: %v", err)
	}
	lost := 0.0
	if flexSol.Objective > 0 {
		lost = 100 * (flexSol.Objective - gsol.Objective) / flexSol.Objective
	}
	fmt.Printf("accepted %d/%d, revenue %.2f (%.1f%% below optimal) in %v (%d iterations)\n",
		gsol.NumAccepted(), len(flex.Requests), gsol.Objective, lost,
		gsol.Runtime.Round(time.Microsecond), gstats.Decisions)
}
