package mip

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"tvnep/internal/lp"
)

// heldCopy is a deep copy of everything a SolveFrom caller still holds once
// the search returns: the incumbent (Result.X) and the root relaxation's
// vectors (Result.Root), which the search never recycles.
type heldCopy struct {
	rootX, rootDuals []float64
	x                []float64
}

func copyHeld(res Result) heldCopy {
	return heldCopy{
		rootX:     append([]float64(nil), res.Root.X...),
		rootDuals: append([]float64(nil), res.Root.Duals...),
		x:         append([]float64(nil), res.X...),
	}
}

// setPartition builds a random set-partitioning problem: k elements, each
// covered exactly once, by its own expensive singleton or by ncols random
// sets of two to four elements. Relaxations sit at halves, so rounding them
// breaks the equalities and the search dives before it has an incumbent.
func setPartition(seed int64, k, ncols int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	rows := make([][]int32, k)
	add := func(cost float64, elems []int) {
		c := p.AddCol(cost, 0, 1)
		for _, e := range elems {
			rows[e] = append(rows[e], int32(c))
		}
	}
	for e := 0; e < k; e++ {
		add(10+rng.Float64(), []int{e})
	}
	for c := 0; c < ncols; c++ {
		size := 2 + rng.Intn(3)
		add(float64(size)*(1+2*rng.Float64()), rng.Perm(k)[:size])
	}
	for _, row := range rows {
		ones := make([]float64, len(row))
		for i := range ones {
			ones[i] = 1
		}
		p.AddEQ(row, ones, 1)
	}
	return &Problem{LP: p, Integer: allInteger(p.NumCols())}
}

// TestRecyclingKeepsCallerStorage runs searches on one recompiled
// instance, the way the admission engine chains its decisions: multi-node
// searches, set-partitioning ones among them whose rounding fails at the
// root so the dive runs. Each must equal Solve bit for bit. Their node
// results, bases and factor buffers go back to the instance. After every
// later search and solve on the same instance has drawn that storage
// again, nothing a caller still holds may have changed: each search's
// Result.X (the incumbent) and Result.Root.
func TestRecyclingKeepsCallerStorage(t *testing.T) {
	ctx := context.Background()
	var inst lp.Instance
	type held struct {
		name string
		res  Result
		cp   heldCopy
	}
	var all []held
	for _, tc := range []struct {
		name string
		prob *Problem
	}{
		{"partition-1", setPartition(1, 14, 60)},
		{"multiknapsack-20x6", multiKnapsack(6, 20, 6)},
		{"partition-6", setPartition(6, 14, 60)},
		{"multiknapsack-40x12", multiKnapsack(4, 40, 12)},
		{"partition-3", setPartition(3, 14, 60)},
	} {
		inst.Recompile(tc.prob.LP)
		res := SolveFrom(ctx, tc.prob, nil, &inst)
		if res.Status != StatusOptimal || res.Nodes < 5 {
			t.Fatalf("%s: status %v after %d nodes; the case no longer searches a tree", tc.name, res.Status, res.Nodes)
		}
		assertBitIdentical(t, tc.name, Solve(ctx, tc.prob, nil), res)
		all = append(all, held{tc.name, res, copyHeld(res)})
		// A plain solve on the instance draws recycled vectors and bases
		// too.
		inst.Recompile(tc.prob.LP)
		inst.Solve(nil)
	}
	for _, h := range all {
		if got := copyHeld(h.res); !reflect.DeepEqual(got, h.cp) {
			t.Errorf("%s: storage the caller holds changed after later searches on the instance", h.name)
		}
	}
}
