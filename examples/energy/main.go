// Energy savings via link disabling (Section IV-E-4): given an admitted set
// of VNets, the operator schedules and routes them so that as many substrate
// links as possible carry no traffic over the whole horizon and can be
// powered down.
//
// The example shows how temporal flexibility concentrates traffic onto
// fewer links: with slack, the solver serializes the VNets over one short
// path; without it they run concurrently and must fan out.
//
//	go run ./examples/energy
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

// flowPrintCutoff is the flow fraction below which a link is omitted from
// the printed route breakdown.
const flowPrintCutoff = 1e-6

// pairRequest builds a 2-VM request with one virtual link.
func pairRequest(name string, linkDemand, earliest, duration, latest float64) *vnet.Request {
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	return &vnet.Request{
		Name:       name,
		G:          g,
		NodeDemand: []float64{0.5, 0.5},
		LinkDemand: []float64{linkDemand},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}

func solve(reqs []*vnet.Request, horizon float64) {
	// 2×2 grid: 4 nodes, 8 directed links.
	sub := substrate.Grid(2, 2, 4, 1)
	inst := &core.Instance{Sub: sub, Reqs: reqs, Horizon: horizon}
	if err := inst.Validate(); err != nil {
		log.Fatal(err)
	}
	// Both requests between substrate corners 0 and 3: paths 0→1→3 or
	// 0→2→3 (splittable).
	mapping := vnet.NodeMapping{{0, 3}, {0, 3}}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    core.DisableLinks,
		FixedMapping: mapping,
	})
	sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
	if sol == nil {
		log.Fatalf("solve failed: %v", ms.Status)
	}
	fmt.Printf("  disabled links: %.0f of %d  (status %v)\n", sol.Objective, sub.NumLinks(), ms.Status)
	for r, req := range reqs {
		fmt.Printf("  %-6s scheduled [%.2f, %.2f]; link flows:", req.Name, sol.Start[r], sol.End[r])
		for ls, f := range sol.Flows[r][0] {
			if f > flowPrintCutoff {
				u, v := sub.G.Edge(ls)
				fmt.Printf("  %d→%d:%.2f", u, v, f)
			}
		}
		fmt.Println()
	}
}

func main() {
	fmt.Println("== Rigid: both transfers run concurrently (must split across paths) ==")
	solve([]*vnet.Request{
		// Each demands the full capacity of a link; concurrent execution
		// forces them onto disjoint paths → 4 links busy.
		pairRequest("bulk-a", 1, 0, 2, 2),
		pairRequest("bulk-b", 1, 0, 2, 2),
	}, 2)

	fmt.Println()
	fmt.Println("== Flexible: 2 h of slack lets the solver serialize them on one path ==")
	solve([]*vnet.Request{
		pairRequest("bulk-a", 1, 0, 2, 4),
		pairRequest("bulk-b", 1, 0, 2, 4),
	}, 4)
}
