package mip

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
)

// heldCopy is a deep copy of everything a SolveFrom caller still holds once
// the search returns: the handed root result, its basis and factors, and
// the search's incumbent (Result.X, with Result.Root's vectors).
type heldCopy struct {
	rootX, rootDuals []float64
	rootBasis        *lp.Basis
	rootFac          *sparselu.Factors
	x                []float64
}

func copyHeld(root lp.Result, res Result) heldCopy {
	fac := &sparselu.Factors{}
	root.Factors.CopyInto(fac)
	return heldCopy{
		rootX:     append([]float64(nil), root.X...),
		rootDuals: append([]float64(nil), root.Duals...),
		rootBasis: root.Basis.Clone(),
		rootFac:   fac,
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
	mp := NewProblem(p)
	for j := 0; j < p.NumCols(); j++ {
		mp.SetInteger(j)
	}
	return mp
}

// TestRecyclingKeepsCallerStorage runs handed-root searches through one
// lp.Workspaces stash, the way the admission engine chains its decisions:
// multi-node searches, set-partitioning ones among them whose rounding
// fails at the root so the dive runs. Their node results, bases and factor
// buffers go back to the stash. After every later search
// and solve on the same stash has drawn that storage again, nothing a
// caller still holds may have changed: each handed root's result, basis
// and factors, its Result.X (the incumbent) and Result.Root.
func TestRecyclingKeepsCallerStorage(t *testing.T) {
	ctx := context.Background()
	ws := lp.NewWorkspaces(2)
	type held struct {
		name string
		root lp.Result
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
		inst := ws.Compile(tc.prob.LP)
		root := inst.Solve(nil)
		inst.CaptureFactors(&root, nil)
		res := SolveFrom(ctx, tc.prob, &Options{HeuristicEvery: 1}, &Root{Inst: inst, Res: root})
		inst.Recycle()
		if res.Status != StatusOptimal || res.Nodes < 5 {
			t.Fatalf("%s: status %v after %d nodes; the case no longer searches a tree", tc.name, res.Status, res.Nodes)
		}
		all = append(all, held{tc.name, root, res, copyHeld(root, res)})
		// A plain solve on the stash draws recycled vectors and bases too.
		plain := ws.Compile(tc.prob.LP)
		plain.Solve(nil)
		plain.Release()
	}
	for _, h := range all {
		got := copyHeld(h.root, h.res)
		if !reflect.DeepEqual(got, h.cp) {
			t.Errorf("%s: storage the caller holds changed after later searches on the stash", h.name)
		}
		if &h.res.Root.X[0] != &h.root.X[0] {
			t.Errorf("%s: Result.Root is not the handed root", h.name)
		}
	}
}
