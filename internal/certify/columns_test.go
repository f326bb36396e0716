package certify

import (
	"context"
	"math"
	"testing"
	"time"

	"tvnep/internal/core"
	"tvnep/internal/graph"
	"tvnep/internal/model"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
	"tvnep/internal/workload"
)

// diamondPathSolve builds and solves the minimal column-generation instance:
// two requests each embedding one virtual link from substrate node 0 to node
// 3 over a diamond with unit link capacities, so both BFS seeds collide on
// 0→1→3 and the pricer must open the alternate route.
func diamondPathSolve(t *testing.T, obj core.Objective) (*core.Built, *model.Solution) {
	t.Helper()
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	sub := substrate.New(g, 4, 1)
	req := func(name string) *vnet.Request {
		rg := graph.NewDigraph(2)
		rg.AddEdge(0, 1)
		return &vnet.Request{
			Name: name, G: rg,
			NodeDemand: []float64{0.5, 0.5}, LinkDemand: []float64{1},
			Earliest: 0, Duration: 2, Latest: 2,
		}
	}
	inst := &core.Instance{Sub: sub, Reqs: []*vnet.Request{req("a"), req("b")}, Horizon: 2}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective:    obj,
		FixedMapping: vnet.NodeMapping{{0, 3}, {0, 3}},
		FlowMode:     core.FlowPath,
	})
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("diamond solve (%v): status %v", obj, ms.Status)
	}
	if len(ms.AppliedColumns) == 0 {
		t.Fatalf("diamond solve (%v) applied no columns; the fixture no longer exercises pricing", obj)
	}
	return b, ms
}

func TestColumnsCertificateKnownGood(t *testing.T) {
	for _, obj := range []core.Objective{core.AccessControl, core.DisableLinks} {
		b, ms := diamondPathSolve(t, obj)
		if rep := Columns(b, ms); !rep.OK() {
			t.Fatalf("%v: known-good priced columns rejected: %v", obj, rep.Err())
		}
	}
}

func TestColumnsCertificateTrivialPass(t *testing.T) {
	if rep := Columns(nil, nil); !rep.OK() {
		t.Fatalf("nil solution should pass trivially: %v", rep.Err())
	}
}

// mutateColumns deep-copies the applied-column list so a mutation cannot leak
// between subtests, has f mutate the copy (and return it, resized if need
// be), and certifies.
func mutateColumns(b *core.Built, ms *model.Solution, f func(cols []model.Column) []model.Column) *Report {
	mutated := *ms
	mutated.AppliedColumns = make([]model.Column, len(ms.AppliedColumns))
	for i, c := range ms.AppliedColumns {
		c.Idx = append([]int32(nil), c.Idx...)
		c.Val = append([]float64(nil), c.Val...)
		mutated.AppliedColumns[i] = c
	}
	mutated.AppliedColumns = f(mutated.AppliedColumns)
	return Columns(b, &mutated)
}

func TestColumnsCertificateMutations(t *testing.T) {
	b, ms := diamondPathSolve(t, core.AccessControl)
	cases := []struct {
		name   string
		mutate func(cols []model.Column)
		want   Kind
	}{
		{"coef-shifted", func(cols []model.Column) { cols[0].Val[0] += 0.5 }, ColCoef},
		{"row-dropped", func(cols []model.Column) {
			cols[0].Idx = cols[0].Idx[:len(cols[0].Idx)-1]
			cols[0].Val = cols[0].Val[:len(cols[0].Val)-1]
		}, ColCoef},
		{"length-mismatch", func(cols []model.Column) { cols[0].Idx = cols[0].Idx[:len(cols[0].Idx)-1] }, ColShape},
		{"row-out-of-range", func(cols []model.Column) { cols[0].Idx[0] = 1 << 20 }, ColShape},
		{"bounds-widened", func(cols []model.Column) { cols[0].UB = 2 }, ColShape},
		{"tag-stripped", func(cols []model.Column) { cols[0].Tag = nil }, ColTag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mutateColumns(b, ms, func(cols []model.Column) []model.Column { tc.mutate(cols); return cols })
			if rep.OK() {
				t.Fatal("mutation not detected")
			}
			if !rep.Has(tc.want) {
				t.Fatalf("want a %q violation, got %v", tc.want, rep.Err())
			}
		})
	}
}

// TestColumnsCertificateRejectsBogusPath retags a genuine column with a
// non-contiguous link sequence and expects a path violation.
func TestColumnsCertificateRejectsBogusPath(t *testing.T) {
	b, ms := diamondPathSolve(t, core.AccessControl)
	c := ms.AppliedColumns[0]
	r, lv, links, ok := core.PathTagInfo(c)
	if !ok {
		t.Fatal("applied column carries no path tag")
	}
	// Edges 0 (0→1) and 3 (2→3) do not join: a walk cannot traverse them.
	c.Tag = core.MakePathTag(r, lv, []int{0, 3})
	mutated := *ms
	mutated.AppliedColumns = []model.Column{c}
	rep := Columns(b, &mutated)
	if !rep.Has(ColPath) {
		t.Fatalf("non-contiguous retag %v→[0 3] not flagged: %v", links, rep.Err())
	}
}

// companionSolve solves, in FlowPath mode, a WAN scenario whose requests
// span several Maybe states, so priced columns open the state and capacity
// rows the build left out. It returns the build, the solution and the index
// of the first applied column that opened a state whose capacity row the LP
// held before it, so that state's allocation column has an entry of its
// own.
func companionSolve(t *testing.T) (*core.Built, *model.Solution, int) {
	t.Helper()
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 3, 1, 1
	sc := workload.Generate(wl, 2)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective: core.AccessControl, FixedMapping: sc.Mapping, FlowMode: core.FlowPath,
	})
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("companion solve: status %v", ms.Status)
	}
	for k, c := range ms.AppliedColumns {
		for q := 0; q < c.Cols; q++ {
			if len(ms.AppliedColumns[k+1+q].Idx) > 0 {
				return b, ms, k
			}
		}
	}
	t.Fatal("no applied column opened a state over a held capacity row; the scenario no longer exercises both kinds of companion")
	return nil, nil, 0
}

// capRowOf returns the LP index of the built capacity row (9) of state n on
// substrate link ls, or −1 when the build left it out.
func capRowOf(b *core.Built, n, ls int) int32 {
	key := capKey(n, ls, b.Inst.Sub.NumNodes())
	for i := 0; i < b.Model.NumConstrs(); i++ {
		if b.Model.RowKey(i) == key {
			return int32(i)
		}
	}
	return -1
}

// TestColumnsCertificateCompanionRows: the companion columns and rows of a
// genuine solve certify, and each corruption of one column's companions —
// its state rows (7), the capacity rows (9) it opens and the allocation
// columns it brings — surfaces as its named violation.
func TestColumnsCertificateCompanionRows(t *testing.T) {
	b, ms, k := companionSolve(t)
	if rep := Columns(b, ms); !rep.OK() {
		t.Fatalf("known-good companion rows rejected: %v", rep.Err())
	}
	c := ms.AppliedColumns[k]
	j := int32(ms.Columns.ColsAtRoot + k)
	r, lv, links, _ := core.PathTagInfo(c)
	isCompanion := func(jj int32) bool { return jj > j && jj <= j+int32(c.Cols) }
	// si is a state row of a companion column with an entry of its own, on
	// the capacity row the LP held before; ci a capacity row opened with a
	// companion column (cq), which has no entry; li a capacity row that
	// carries λ_j itself.
	si, ci, li, cq := -1, -1, -1, int32(-1)
	for i, row := range c.Rows {
		switch {
		case len(row.Idx) > 1:
			for _, jj := range row.Idx {
				if si < 0 && isCompanion(jj) && len(ms.AppliedColumns[k+int(jj-j)].Idx) > 0 {
					si = i
				}
			}
		case isCompanion(row.Idx[0]) && ci < 0:
			ci, cq = i, row.Idx[0]
		case row.Idx[0] == j && li < 0:
			li = i
		}
	}
	if si < 0 || ci < 0 || li < 0 {
		t.Fatalf("column %d opened no state over a held capacity row (%d), no capacity row with a state (%d) or none of its own (%d)",
			k, si, ci, li)
	}
	rowS := c.Rows[si]
	// Positions in the state row of λ_j, of its companion allocation a and
	// of a χ.
	lam, a, chi := -1, -1, -1
	for p, jj := range rowS.Idx {
		switch {
		case jj == j:
			lam = p
		case isCompanion(jj):
			a = p
		default:
			chi = p
		}
	}
	if lam < 0 || a < 0 || chi < 0 {
		t.Fatalf("companion row %v@%v lacks a λ, a or χ entry", rowS.Idx, rowS.Val)
	}
	// The state row's companion column, its position p among the applied
	// columns, its state n, and built capacity rows of state n on a link
	// off the path where r's state is deferred and on a link where it is
	// not.
	ca := rowS.Idx[a]
	p := k + int(ca-j)
	capRow := ms.AppliedColumns[p].Idx[0]
	n := int(b.Model.RowKey(int(capRow)).I)
	df := newDeferral(b, newActivityOracle(b))
	onPath := make(map[int]bool)
	for _, ls := range links {
		onPath[ls] = true
	}
	offPath, notDeferred := int32(-1), int32(-1)
	for ls := 0; ls < b.Inst.Sub.NumLinks(); ls++ {
		row := capRowOf(b, n, ls)
		deferred := df.stateDeferred(stateKey{r: r, n: n, ls: ls})
		switch {
		case row < 0:
		case offPath < 0 && deferred && !onPath[ls]:
			offPath = row
		case notDeferred < 0 && !deferred:
			notDeferred = row
		}
	}
	if offPath < 0 || notDeferred < 0 {
		t.Fatalf("state %d: no built capacity row of a deferred state off the column's path (%d) or of a built one (%d)",
			n, offPath, notDeferred)
	}
	// other is a second companion column of the same column.
	other := j + 1
	if other == ca {
		other++
	}
	// offState is a state of r the build left out on a link off the path:
	// opening it brings one companion column, its state row and its
	// capacity row more than the path needs.
	d := b.Inst.Reqs[r].LinkDemand[lv]
	offState := stateKey{r: r, n: -1}
	for nn := 1; nn <= len(b.Inst.Reqs) && offState.n < 0; nn++ {
		for ls := 0; ls < b.Inst.Sub.NumLinks(); ls++ {
			if st := (stateKey{r: r, n: nn, ls: ls}); !onPath[ls] && df.stateDeferred(st) {
				offState = st
				break
			}
		}
	}
	if offState.n < 0 {
		t.Fatalf("request %d has no deferred state off the column's path", r)
	}
	openOffPath := func(cols []model.Column) []model.Column {
		at := k + 1 + c.Cols
		a := j + 1 + int32(c.Cols)
		idx, val, lb := expectedStateRow(b, offState, a, int(j), d)
		cols[k].Cols++
		cols[k].Rows = append(cols[k].Rows,
			model.Cut{Idx: idx, Val: val, LB: lb, UB: math.Inf(1)},
			model.Cut{Idx: []int32{a}, Val: []float64{1}, LB: math.Inf(-1), UB: b.Inst.Sub.LinkCap[offState.ls]})
		return append(cols[:at:at], append([]model.Column{{LB: 0, UB: math.Inf(1)}}, cols[at:]...)...)
	}

	// edit turns an in-place mutation into one that keeps the list.
	edit := func(f func(cols []model.Column)) func(cols []model.Column) []model.Column {
		return func(cols []model.Column) []model.Column { f(cols); return cols }
	}
	cases := []struct {
		name   string
		mutate func(cols []model.Column) []model.Column
		want   Kind
	}{
		{"row-missing", edit(func(cols []model.Column) { cols[k].Rows = cols[k].Rows[:len(cols[k].Rows)-1] }), ColRowMissing},
		{"lambda-coef", edit(func(cols []model.Column) { cols[k].Rows[si].Val[lam] *= 2 }), ColRowCoef},
		{"alloc-coef", edit(func(cols []model.Column) { cols[k].Rows[si].Val[a] = 2 }), ColRowCoef},
		{"chi-coef", edit(func(cols []model.Column) { cols[k].Rows[si].Val[chi] += 1 }), ColRowCoef},
		{"bound-moved", edit(func(cols []model.Column) { cols[k].Rows[si].LB-- }), ColRowCoef},
		{"off-path", edit(func(cols []model.Column) { cols[p].Idx[0] = offPath }), ColRowStray},
		{"no-state", edit(func(cols []model.Column) { cols[k].Rows[si].Idx[a] = cols[k].Rows[si].Idx[chi] }), ColRowStray},
		{"created-twice", edit(func(cols []model.Column) { cols[k].Rows = append(cols[k].Rows, cols[k].Rows[si]) }), ColRowDup},
		{"alloc-cap-missing", edit(func(cols []model.Column) { cols[p].Idx, cols[p].Val = nil, nil }), ColAllocShape},
		{"alloc-cap-coef", edit(func(cols []model.Column) { cols[p].Val[0] = 2 }), ColAllocShape},
		{"alloc-bound", edit(func(cols []model.Column) { cols[p].UB = 1 }), ColAllocShape},
		{"alloc-lower-bound", edit(func(cols []model.Column) { cols[p].LB = -1 }), ColAllocShape},
		{"alloc-objective", edit(func(cols []model.Column) { cols[p].Obj = 1 }), ColAllocShape},
		{"alloc-no-deferred-state", edit(func(cols []model.Column) { cols[p].Idx[0] = notDeferred }), ColAllocStray},
		{"alloc-not-capacity", edit(func(cols []model.Column) { cols[p].Idx[0] = cols[k].Idx[0] }), ColAllocStray},
		{"alloc-wrong-companion", edit(func(cols []model.Column) { cols[k].Rows[si].Idx[a] = other }), ColAllocStray},
		{"alloc-path-column", edit(func(cols []model.Column) { cols[k].Rows[si].Idx[a] = j }), ColRowStray},
		{"alloc-count-short", edit(func(cols []model.Column) { cols[k].Cols-- }), ColRowStray},
		// Capacity rows (9) opened as companions.
		{"cap-dropped", edit(func(cols []model.Column) {
			cols[k].Rows = append(cols[k].Rows[:ci:ci], cols[k].Rows[ci+1:]...)
		}), ColRowMissing},
		{"cap-dropped-own", edit(func(cols []model.Column) {
			cols[k].Rows = append(cols[k].Rows[:li:li], cols[k].Rows[li+1:]...)
		}), ColRowMissing},
		{"cap-twice", edit(func(cols []model.Column) { cols[k].Rows = append(cols[k].Rows, cols[k].Rows[li]) }), ColRowDup},
		{"cap-held-reopened", edit(func(cols []model.Column) {
			cols[k].Rows = append(cols[k].Rows, model.Cut{Idx: []int32{ca}, Val: []float64{1}, LB: math.Inf(-1), UB: 1})
		}), ColRowDup},
		{"cap-bound", edit(func(cols []model.Column) { cols[k].Rows[ci].UB++ }), ColRowCoef},
		{"cap-lower-bound", edit(func(cols []model.Column) { cols[k].Rows[li].LB = 0 }), ColRowCoef},
		{"cap-coef", edit(func(cols []model.Column) { cols[k].Rows[li].Val[0] *= 2 }), ColRowCoef},
		{"cap-off-path", openOffPath, ColRowStray},
		{"alloc-on-closed-cap", edit(func(cols []model.Column) {
			q := k + int(cq-j)
			cols[q].Idx, cols[q].Val = []int32{int32(c.Row + ci)}, []float64{1}
		}), ColAllocShape},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mutateColumns(b, ms, func(cols []model.Column) []model.Column {
				c := &cols[k]
				c.Rows = append([]model.Cut(nil), c.Rows...)
				for i := range c.Rows {
					c.Rows[i].Idx = append([]int32(nil), c.Rows[i].Idx...)
					c.Rows[i].Val = append([]float64(nil), c.Rows[i].Val...)
				}
				return tc.mutate(cols)
			})
			if !rep.Has(tc.want) {
				t.Fatalf("want a %q violation, got %v", tc.want, rep.Err())
			}
		})
	}
}

// TestColumnsCertificateWANSweep certifies the priced columns and companion
// rows of WAN solves whose star requests have several virtual links, so one
// pricing batch can route two links of a request over a link neither used
// before: the later column must carry its coefficients on the rows the
// earlier one opened. Seed 7 is pinned because it does (a search that
// appends the later column as priced, without the rows opened in its batch,
// fails this test there).
func TestColumnsCertificateWANSweep(t *testing.T) {
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves = 6, 2
	opened := 0
	for _, flex := range []float64{1, 3} {
		for _, cm := range []core.CutMode{core.CutStatic, core.CutLazy} {
			for _, seed := range []int64{1, 7} {
				wl.FlexibilityHr = flex
				sc := workload.Generate(wl, seed)
				inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
				b := core.BuildCSigma(inst, core.BuildOptions{
					Objective: core.AccessControl, FixedMapping: sc.Mapping, FlowMode: core.FlowPath, CutMode: cm,
				})
				sol, ms := b.Solve(context.Background(), &model.SolveOptions{TimeLimit: 60 * time.Second})
				if ms.Status != model.StatusOptimal || sol == nil {
					t.Fatalf("seed %d flex %v %v: status %v", seed, flex, cm, ms.Status)
				}
				if rep := Columns(b, ms); !rep.OK() {
					t.Fatalf("seed %d flex %v %v: %v", seed, flex, cm, rep.Err())
				}
				opened += ms.Columns.CompanionRows
			}
		}
	}
	if opened == 0 {
		t.Fatal("no priced column opened a state row")
	}
	t.Logf("%d companion rows certified", opened)
}
