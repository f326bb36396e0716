package certify

// Column certificate: re-verifies every path column a FlowPath cΣ solve
// priced through the column-generation pipeline (internal/core's path pricer
// feeding internal/mip's column pool). Each applied column must (a) carry a
// path tag naming the virtual link it serves, (b) route that tag over a
// contiguous simple directed substrate path between the pinned endpoint
// hosts, and (c) carry exactly the LP coefficients that path implies. The
// expected coefficients are re-derived here from the dependency graph and
// the compiled row keys — independently of the link-use registry the
// builder and pricer share — so a registry corrupted at build time cannot
// vouch for the columns it produced.

import (
	"fmt"

	"tvnep/internal/core"
	"tvnep/internal/depgraph"
	"tvnep/internal/model"
)

// Column-certificate violation classes.
const (
	// ColShape: an applied column is malformed (length mismatch, row index
	// outside the model, or bounds/objective differing from a unit path
	// variable's 0 ≤ λ ≤ 1 with zero objective).
	ColShape Kind = "col-shape"
	// ColTag: an applied column carries no path tag, or a tag naming a
	// request or virtual link outside the instance.
	ColTag Kind = "col-tag"
	// ColPath: a column's tagged link sequence is not a contiguous simple
	// directed substrate path between the pinned endpoint hosts.
	ColPath Kind = "col-path"
	// ColCoef: a column's LP coefficients disagree with the coefficients its
	// tagged path implies under the dependency-graph activity analysis.
	ColCoef Kind = "col-coef"
)

// Columns re-verifies every applied path column of a cΣ solve. A solve
// without applied columns passes trivially; applied columns on anything but
// a FlowPath cΣ build are themselves a violation, since no other build
// registers a pricer.
func Columns(b *core.Built, ms *model.Solution) *Report {
	rep := &Report{}
	if ms == nil || len(ms.AppliedColumns) == 0 {
		return rep
	}
	if b.Kind != core.CSigma || b.Opts.FlowMode != core.FlowPath {
		rep.addf(ColTag, -1, "applied columns on a %v/%v build; only FlowPath cΣ prices columns",
			b.Kind, b.Opts.FlowMode)
		return rep
	}
	rows := rowIndexByKey(b.Model)
	oracle := newActivityOracle(b)
	for k, c := range ms.AppliedColumns {
		checkColumn(rep, b, rows, oracle, k, c)
	}
	return rep
}

// colLabel names an applied column in messages: by its path tag (r, lv,
// links), or by its position in AppliedColumns when it carries none.
type colLabel struct {
	k int
	c model.Column
}

func (l colLabel) String() string {
	if r, lv, links, ok := core.PathTagInfo(l.c); ok {
		return fmt.Sprintf("column (%d, %d, %v)", r, lv, links)
	}
	return fmt.Sprintf("column %d", l.k)
}

func checkColumn(rep *Report, b *core.Built, rows map[model.Key]int, oracle *activityOracle, k int, c model.Column) {
	name := colLabel{k: k, c: c}
	if len(c.Idx) != len(c.Val) || len(c.Idx) == 0 {
		rep.addf(ColShape, -1, "%v: %d indices, %d values", name, len(c.Idx), len(c.Val))
		return
	}
	nRows := b.Model.NumConstrs()
	for _, i := range c.Idx {
		if int(i) < 0 || int(i) >= nRows {
			rep.addf(ColShape, -1, "%v: row %d outside model with %d rows", name, i, nRows)
			return
		}
	}
	//lint:allow floateq -- path-weight bounds are the exact literals 0 and 1 the builder emits; any drift is the violation
	if c.LB != 0 || c.UB != 1 || c.Obj != 0 {
		rep.addf(ColShape, -1, "%v: bounds [%v, %v] obj %v, want [0, 1] obj 0",
			name, c.LB, c.UB, c.Obj)
	}

	r, lv, links, ok := core.PathTagInfo(c)
	if !ok {
		rep.addf(ColTag, -1, "%v carries no path tag", name)
		return
	}
	if r < 0 || r >= len(b.Inst.Reqs) {
		rep.addf(ColTag, -1, "%v: request %d outside instance with %d requests", name, r, len(b.Inst.Reqs))
		return
	}
	req := b.Inst.Reqs[r]
	if lv < 0 || lv >= req.G.NumEdges() {
		rep.addf(ColTag, r, "%v: virtual link %d outside request with %d links", name, lv, req.G.NumEdges())
		return
	}
	u, v := req.G.Edge(lv)
	hu, hv := b.Opts.FixedMapping[r][u], b.Opts.FixedMapping[r][v]
	if hu == hv {
		rep.addf(ColPath, r, "%v serves virtual link %d whose endpoints share host %d — no path column should exist",
			name, lv, hu)
		return
	}
	if !checkSimplePath(rep, b, name, r, links, hu, hv) {
		return
	}

	wantIdx, wantVal, ok := expectedPathColumn(rep, b, rows, oracle, name, r, lv, links)
	if !ok {
		return
	}
	if cutRowKey(wantIdx, wantVal, 0, 0) != cutRowKey(c.Idx, c.Val, 0, 0) {
		rep.addf(ColCoef, r,
			"%v: coefficients disagree with path %v (got %d terms %v@%v, expected %d terms %v@%v)",
			name, links, len(c.Idx), c.Idx, c.Val, len(wantIdx), wantIdx, wantVal)
	}
}

// checkSimplePath verifies links is a contiguous directed walk from hu to hv
// over the substrate graph visiting no substrate node twice.
func checkSimplePath(rep *Report, b *core.Built, name colLabel, r int, links []int, hu, hv int) bool {
	g := b.Inst.Sub.G
	if len(links) == 0 {
		rep.addf(ColPath, r, "%v: empty path between distinct hosts %d and %d", name, hu, hv)
		return false
	}
	seen := map[int]bool{hu: true}
	at := hu
	for _, e := range links {
		if e < 0 || e >= g.NumEdges() {
			rep.addf(ColPath, r, "%v: link %d outside substrate with %d links", name, e, g.NumEdges())
			return false
		}
		eu, ev := g.Edge(e)
		if eu != at {
			rep.addf(ColPath, r, "%v: path %v breaks at link %d (tail %d, walker at %d)", name, links, e, eu, at)
			return false
		}
		if seen[ev] {
			rep.addf(ColPath, r, "%v: path %v revisits substrate node %d", name, links, ev)
			return false
		}
		seen[ev] = true
		at = ev
	}
	if at != hv {
		rep.addf(ColPath, r, "%v: path %v ends at %d, want host %d", name, links, at, hv)
		return false
	}
	return true
}

// expectedPathColumn re-derives the LP column the tagged path implies: +1 on
// the convexity row, the per-state allocation coefficients of every
// traversed link (−d on the Maybe-state rows, +d directly on the
// Always-state capacity rows, per the Section IV-C presolve), and the unit
// flow-count coefficients on the DisableLinks activity rows. Activity comes
// from a fresh dependency-graph analysis, not from the builder's registry.
func expectedPathColumn(rep *Report, b *core.Built, rows map[model.Key]int, oracle *activityOracle, name colLabel, r, lv int, links []int) ([]int32, []float64, bool) {
	var idx []int32
	var val []float64
	ok := true
	// add puts coef on the row under key; a missing row is a violation.
	add := func(key model.Key, coef float64) {
		row, found := rows[key]
		if !found {
			rep.addf(ColCoef, r, "%v: model has no row %v for its path", name, key)
			ok = false
			return
		}
		idx, val = append(idx, int32(row)), append(val, coef)
	}
	add(model.Key2(core.FamConv, r, lv), 1)
	k := len(b.Inst.Reqs)
	numNodes := b.Inst.Sub.NumNodes()
	d := b.Inst.Reqs[r].LinkDemand[lv]
	for _, ls := range links {
		for n := 1; d > 0 && n <= k; n++ {
			switch oracle.at(r, n) {
			case depgraph.Maybe:
				add(model.Key3(core.FamState, r, n, numNodes+ls), -d)
			case depgraph.Always:
				add(model.Key2(core.FamCap, n, numNodes+ls), d)
			}
		}
		if b.Opts.Objective == core.DisableLinks {
			add(model.Key1(core.FamDis, ls), 1)
		}
	}
	return idx, val, ok
}

// activityOracle replays the cΣ builder's request-activity analysis from the
// problem data: dependency-graph activity normally, window-bounded Maybe when
// the presolve is disabled, full windows when the cut family is off.
type activityOracle struct {
	dg               *depgraph.Graph
	disablePresolve  bool
	startWin, endWin []depgraph.Window
}

func newActivityOracle(b *core.Built) *activityOracle {
	dg := depgraph.Build(b.Inst.Reqs)
	o := &activityOracle{dg: dg, disablePresolve: b.Opts.DisablePresolve}
	if b.Opts.CutMode == core.CutOff {
		o.startWin, o.endWin = depgraph.FullWindows(len(b.Inst.Reqs))
	} else {
		o.startWin, o.endWin = dg.StartWindow, dg.EndWindow
	}
	return o
}

func (o *activityOracle) at(r, n int) depgraph.Activity {
	if o.disablePresolve {
		if n < o.startWin[r].Lo || n > o.endWin[r].Hi-1 {
			return depgraph.Never
		}
		return depgraph.Maybe
	}
	return o.dg.ActivityAt(r, n)
}

// rowIndexByKey inverts the compiled model's row keys.
func rowIndexByKey(m *model.Model) map[model.Key]int {
	rows := make(map[model.Key]int, m.NumConstrs())
	for i := 0; i < m.NumConstrs(); i++ {
		rows[m.RowKey(i)] = i
	}
	return rows
}
