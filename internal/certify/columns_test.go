package certify

import (
	"context"
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
// between subtests, applies f to the copy, and certifies.
func mutateColumns(b *core.Built, ms *model.Solution, f func(cols []model.Column)) *Report {
	mutated := *ms
	mutated.AppliedColumns = make([]model.Column, len(ms.AppliedColumns))
	for i, c := range ms.AppliedColumns {
		c.Idx = append([]int32(nil), c.Idx...)
		c.Val = append([]float64(nil), c.Val...)
		mutated.AppliedColumns[i] = c
	}
	f(mutated.AppliedColumns)
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
			rep := mutateColumns(b, ms, tc.mutate)
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
// span several Maybe states, so priced columns open the state rows the
// build left out. It returns the build, the solution and the index of the
// first applied column that opened at least two companion rows.
func companionSolve(t *testing.T) (*core.Built, *model.Solution, int) {
	t.Helper()
	wl := workload.Default()
	wl.Topology, wl.WANNodes, wl.WANAvgDeg = "wan", 12, 4
	wl.NumRequests, wl.StarLeaves, wl.FlexibilityHr = 3, 1, 3
	sc := workload.Generate(wl, 5)
	inst := &core.Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := core.BuildCSigma(inst, core.BuildOptions{
		Objective: core.AccessControl, FixedMapping: sc.Mapping, FlowMode: core.FlowPath,
	})
	sol, ms := b.Solve(context.Background(), nil)
	if ms.Status != model.StatusOptimal || sol == nil {
		t.Fatalf("companion solve: status %v", ms.Status)
	}
	for k, c := range ms.AppliedColumns {
		if len(c.Rows) >= 2 {
			return b, ms, k
		}
	}
	t.Fatal("no applied column opened two state rows; the scenario no longer exercises companion rows")
	return nil, nil, 0
}

// capRowOf returns the LP index of the capacity row (9) of state n on
// substrate link ls.
func capRowOf(t *testing.T, b *core.Built, n, ls int) int32 {
	t.Helper()
	key := model.Key2(core.FamCap, n, b.Inst.Sub.NumNodes()+ls)
	for i := 0; i < b.Model.NumConstrs(); i++ {
		if b.Model.RowKey(i) == key {
			return int32(i)
		}
	}
	t.Fatalf("no capacity row %v", key)
	return -1
}

// TestColumnsCertificateCompanionRows: the companion columns and rows of a
// genuine solve certify, and each corruption of one column's companions
// surfaces as its named violation.
func TestColumnsCertificateCompanionRows(t *testing.T) {
	b, ms, k := companionSolve(t)
	if rep := Columns(b, ms); !rep.OK() {
		t.Fatalf("known-good companion rows rejected: %v", rep.Err())
	}
	c := ms.AppliedColumns[k]
	j := int32(ms.Columns.ColsAtRoot + k)
	r, _, links, _ := core.PathTagInfo(c)
	if c.Cols != len(c.Rows) {
		t.Fatalf("column %d opened %d companion columns for %d rows", k, c.Cols, len(c.Rows))
	}
	isCompanion := func(jj int32) bool { return jj > j && jj <= j+int32(c.Cols) }
	row0 := c.Rows[0]
	// Positions in row 0 of λ_j, of its companion allocation a and of a χ.
	lam, a, chi := -1, -1, -1
	for p, jj := range row0.Idx {
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
		t.Fatalf("companion row %v@%v lacks a λ, a or χ entry", row0.Idx, row0.Val)
	}
	// Row 0's companion column, its position p among the companions, its
	// state, and the capacity rows of r's deferred state at the same n off
	// the path and of a state the build did not defer.
	ca := row0.Idx[a]
	p := k + int(ca-j)
	capRow := ms.AppliedColumns[p].Idx[0]
	deferred := make(map[[3]int]bool)
	b.ForEachDeferredState(func(rr, n, ls int) { deferred[[3]int{rr, n, ls}] = true })
	var st [3]int
	for key := range deferred {
		if key[0] == r && capRowOf(t, b, key[1], key[2]) == capRow {
			st = key
		}
	}
	onPath := make(map[int]bool)
	for _, ls := range links {
		onPath[ls] = true
	}
	offPath, notDeferred := int32(-1), int32(-1)
	for ls := 0; ls < b.Inst.Sub.NumLinks(); ls++ {
		switch {
		case offPath < 0 && deferred[[3]int{r, st[1], ls}] && !onPath[ls]:
			offPath = capRowOf(t, b, st[1], ls)
		case notDeferred < 0 && !deferred[[3]int{r, st[1], ls}]:
			notDeferred = capRowOf(t, b, st[1], ls)
		}
	}
	if offPath < 0 || notDeferred < 0 {
		t.Fatalf("state %v: no deferred state off the column's path or no built one", st)
	}
	// other is a second companion column of the same column.
	other := j + 1
	if other == ca {
		other++
	}

	cases := []struct {
		name   string
		mutate func(cols []model.Column)
		want   Kind
	}{
		{"row-missing", func(cols []model.Column) { cols[k].Rows = cols[k].Rows[:len(cols[k].Rows)-1] }, ColRowMissing},
		{"lambda-coef", func(cols []model.Column) { cols[k].Rows[0].Val[lam] *= 2 }, ColRowCoef},
		{"alloc-coef", func(cols []model.Column) { cols[k].Rows[0].Val[a] = 2 }, ColRowCoef},
		{"chi-coef", func(cols []model.Column) { cols[k].Rows[0].Val[chi] += 1 }, ColRowCoef},
		{"bound-moved", func(cols []model.Column) { cols[k].Rows[0].LB-- }, ColRowCoef},
		{"off-path", func(cols []model.Column) { cols[p].Idx[0] = offPath }, ColRowStray},
		{"no-state", func(cols []model.Column) { cols[k].Rows[0].Idx[a] = cols[k].Rows[0].Idx[chi] }, ColRowStray},
		{"created-twice", func(cols []model.Column) { cols[k].Rows = append(cols[k].Rows, cols[k].Rows[0]) }, ColRowDup},
		{"alloc-cap-missing", func(cols []model.Column) { cols[p].Idx, cols[p].Val = nil, nil }, ColAllocShape},
		{"alloc-cap-coef", func(cols []model.Column) { cols[p].Val[0] = 2 }, ColAllocShape},
		{"alloc-bound", func(cols []model.Column) { cols[p].UB = 1 }, ColAllocShape},
		{"alloc-lower-bound", func(cols []model.Column) { cols[p].LB = -1 }, ColAllocShape},
		{"alloc-objective", func(cols []model.Column) { cols[p].Obj = 1 }, ColAllocShape},
		{"alloc-no-deferred-state", func(cols []model.Column) { cols[p].Idx[0] = notDeferred }, ColAllocStray},
		{"alloc-not-capacity", func(cols []model.Column) { cols[p].Idx[0] = cols[k].Idx[0] }, ColAllocStray},
		{"alloc-wrong-companion", func(cols []model.Column) { cols[k].Rows[0].Idx[a] = other }, ColAllocStray},
		{"alloc-path-column", func(cols []model.Column) { cols[k].Rows[0].Idx[a] = j }, ColRowStray},
		{"alloc-count-short", func(cols []model.Column) { cols[k].Cols-- }, ColRowStray},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mutateColumns(b, ms, func(cols []model.Column) {
				c := &cols[k]
				c.Rows = append([]model.Cut(nil), c.Rows...)
				for i := range c.Rows {
					c.Rows[i].Idx = append([]int32(nil), c.Rows[i].Idx...)
					c.Rows[i].Val = append([]float64(nil), c.Rows[i].Val...)
				}
				tc.mutate(cols)
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
