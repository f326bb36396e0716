// WAN bulk-transfer scheduling: the paper's B4 motivation (Section I).
// A software-defined WAN connects a handful of datacenters; bandwidth-
// intensive data copies between sites are planned centrally. Each copy is a
// 2-VM virtual network with a deadline window; the controller admits and
// schedules them so that no WAN link is ever oversubscribed.
//
//	go run ./examples/wan
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/solution"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// flowPrintCutoff is the flow fraction below which a link is omitted from
// the printed route breakdown.
const flowPrintCutoff = 1e-6

// wan builds a 5-site topology: a ring with one chord (B4-like sparse WAN).
func wan() *substrate.Network {
	g := graph.NewDigraph(5)
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}
	for _, e := range ring {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	// Sites have ample compute; links carry 10 Gb/s of schedulable volume.
	return substrate.New(g, 100, 10)
}

// transfer is a bulk copy src→dst consuming gbps of bandwidth for the given
// number of hours, to be finished within the window.
func transfer(name string, gbps, earliest, hours, latest float64) *vnet.Request {
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	return &vnet.Request{
		Name:       name,
		G:          g,
		NodeDemand: []float64{1, 1},
		LinkDemand: []float64{gbps},
		Earliest:   earliest,
		Duration:   hours,
		Latest:     latest,
	}
}

func main() {
	sub := wan()
	// Three heavy copies out of site 0 towards site 2 (they share the ring
	// paths) plus one interactive-priority copy with a rigid window.
	reqs := []*vnet.Request{
		transfer("backup-a", 8, 0, 3, 12),
		transfer("backup-b", 8, 0, 3, 12),
		transfer("index-sync", 8, 0, 3, 12),
		transfer("hotfix", 6, 2, 1, 3), // rigid: must run exactly at [2,3]
	}
	// Endpoints: all copies 0 → 2; the hotfix 1 → 3.
	mapping := vnet.NodeMapping{{0, 2}, {0, 2}, {0, 2}, {1, 3}}
	horizon := 12.0
	inst := &core.Instance{Sub: sub, Reqs: reqs, Horizon: horizon}
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}

	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.AccessControl,
		FixedMapping: mapping,
	})
	sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 2 * time.Minute})
	if sol == nil {
		log.Fatalf("no plan found: %v", ms.Status)
	}
	if err := solution.Check(sub, reqs, sol); err != nil {
		log.Fatalf("plan failed verification: %v", err)
	}
	fmt.Printf("admitted %d/%d transfers (status %v, %d B&B nodes)\n\n",
		sol.NumAccepted(), len(reqs), ms.Status, ms.Nodes)
	for r, req := range reqs {
		if !sol.Accepted[r] {
			fmt.Printf("  %-10s REJECTED\n", req.Name)
			continue
		}
		fmt.Printf("  %-10s [%5.2f, %5.2f]  route:", req.Name, sol.Start[r], sol.End[r])
		for ls, f := range sol.Flows[r][0] {
			if f > flowPrintCutoff {
				u, v := sub.G.Edge(ls)
				fmt.Printf(" %d→%d(%.0f%%)", u, v, f*100)
			}
		}
		fmt.Println()
	}
	fmt.Println("\nEvery copy shares the sparse WAN without oversubscribing any 10G link;")
	fmt.Println("the three flexible bulk copies are spread over the 12h window while the")
	fmt.Println("rigid hotfix claims its exact slot.")
}
