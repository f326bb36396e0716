package core

import (
	"testing"

	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// fuzzNodeLimit bounds each solve of FuzzPathMatchesArc far above what its
// instances branch; a solve it stops fails the comparison, as any status
// other than optimal does.
const fuzzNodeLimit = 10000

// decodePathInstance decodes data into an instance small enough for one
// fuzz execution: a substrate of 2–5 nodes whose links all come in both
// directions, up to three requests of one virtual link each on fixed hosts,
// with their demands and windows, and a cut mode. Missing bytes read 0.
//
// Layout: nodes, node capacity, link capacity, link count, then per link
// its two end nodes (repeats and self-loops are skipped); request count,
// then per request its two hosts, two node demands, link demand, earliest
// start, duration and flexibility; last the cut mode. Capacities are
// (1+b%40)/4, demands (1+b%40)/10, earliest starts and durations whole
// hours and flexibilities half hours.
func decodePathInstance(data []byte) (*Instance, vnet.NodeMapping, CutMode) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	scaled := func(q float64) float64 { return float64(1+next()%40) / q }
	n := 2 + next()%4
	nodeCap, linkCap := scaled(4), scaled(4)
	g := graph.NewDigraph(n)
	linked := make(map[[2]int]bool)
	for k := next() % 11; k > 0; k-- {
		u, v := next()%n, next()%n
		if u == v || linked[[2]int{u, v}] {
			continue
		}
		linked[[2]int{u, v}], linked[[2]int{v, u}] = true, true
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	inst := &Instance{Sub: substrate.New(g, nodeCap, linkCap)}
	var mapping vnet.NodeMapping
	for k := 1 + next()%3; k > 0; k-- {
		rg := graph.NewDigraph(2)
		rg.AddEdge(0, 1)
		mapping = append(mapping, []int{next() % n, next() % n})
		req := &vnet.Request{G: rg, NodeDemand: []float64{scaled(10), scaled(10)}, LinkDemand: []float64{scaled(10)}}
		req.Earliest = float64(next() % 4)
		req.Duration = float64(1 + next()%3)
		req.Latest = req.Earliest + req.Duration + float64(next()%9)/2
		inst.Reqs = append(inst.Reqs, req)
		inst.Horizon = max(inst.Horizon, req.Latest)
	}
	return inst, mapping, []CutMode{CutStatic, CutLazy}[next()%2]
}

// FuzzPathMatchesArc runs TestPathMatchesArcRandom's comparison on decoded
// instances: arc and path cΣ must reach the same optimum under
// AccessControl and, on its accept set, under every fixed-set objective,
// with checker-clean solutions. The seeds are an instance whose two priced
// paths of one virtual link are offered with equal coefficients (the column
// pool must append both) and a flexibility-0 one. The corpus under
// testdata/fuzz adds opened-capacity-binds: two unit-demand requests from
// node 0 to node 1 of a unit-capacity triangle at the same time, so the
// priced column over 0→2→1 opens the capacity rows (9) the build left out
// on those links, and they bind at the optimum.
func FuzzPathMatchesArc(f *testing.F) {
	f.Add([]byte{
		2, 39, 3, // 4 nodes, capacities 10 and 1
		5, 0, 1, 0, 2, 2, 1, 0, 3, 3, 1, // links 0↔1, 0↔2, 2↔1, 0↔3, 3↔1
		1,                       // 2 requests
		0, 1, 0, 0, 24, 0, 0, 4, // a: hosts 0→1, node demands 0.1, link demand 2.5, window [0, 3], d = 1
		2, 2, 0, 0, 0, 0, 0, 4, // b: both nodes on host 2, link demand 0.1, same window
		0, // static cuts
	})
	f.Add([]byte{
		1, 7, 5, // 3 nodes, capacities 2 and 1.5
		3, 0, 1, 1, 2, 2, 0, // a triangle
		2,                      // 3 requests
		0, 2, 9, 4, 9, 0, 1, 0, // hosts 0→2, window [0, 2], d = 2
		1, 2, 4, 9, 4, 1, 0, 0, // hosts 1→2, window [1, 2], d = 1
		2, 0, 9, 9, 12, 0, 2, 0, // hosts 2→0, window [0, 3], d = 3
		1, // lazy cuts
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, mapping, cm := decodePathInstance(data)
		comparePathArcObjectives(t, inst, mapping, cm, 0, 0, &model.SolveOptions{NodeLimit: fuzzNodeLimit})
	})
}
