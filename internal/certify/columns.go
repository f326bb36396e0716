package certify

// Column certificate: re-verifies every path column a FlowPath cΣ solve
// priced through the column-generation pipeline (internal/core's path pricer
// feeding internal/mip's column pool). Each applied column must (a) carry a
// path tag naming the virtual link it serves, (b) route that tag over a
// contiguous simple directed substrate path between the pinned endpoint
// hosts, (c) carry exactly the LP coefficients that path implies, and (d)
// open exactly the states its path needs that neither the build nor an
// earlier column holds: the build leaves out the state rows (7) of a
// request on links no seed column of it routes over, with their allocation
// variables, and the first priced column of the request over such a link
// brings each state's variable as a companion column and its row as a
// companion row. The expected coefficients and companions are re-derived
// here from the dependency graph, the compiled row keys and the χ
// variables — independently of the link-use registry the builder and pricer
// share — so a registry corrupted at build time cannot vouch for the
// columns it produced.

import (
	"fmt"
	"math"

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
	// ColRowMissing: a Maybe state on a link of a column's path has no
	// state row after the column — neither in the build nor among the
	// companion rows of the column or an earlier one.
	ColRowMissing Kind = "col-row-missing"
	// ColRowCoef: a companion row's coefficients or bounds differ from the
	// state row (7) it opens.
	ColRowCoef Kind = "col-row-coef"
	// ColRowStray: a companion row names no companion column of its path
	// column as its allocation variable, or opens a state of another request
	// or on a link the column's path does not use.
	ColRowStray Kind = "col-row-stray"
	// ColRowDup: a companion row opens a state row that already exists.
	ColRowDup Kind = "col-row-dup"
	// ColAllocShape: a companion column differs from a state allocation
	// variable: bounds other than [0, +Inf), a nonzero objective, or entries
	// other than one +1 on the capacity row (9) of the state it opens.
	ColAllocShape Kind = "col-alloc-shape"
	// ColAllocStray: a companion column opens no state the build left out:
	// no companion row of its path column names it, or its capacity row is
	// not that of a deferred state.
	ColAllocStray Kind = "col-alloc-stray"
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
	cc := &colCheck{
		rep: rep, b: b,
		rows:     rowIndexByKey(b.Model),
		oracle:   newActivityOracle(b),
		deferred: make(map[stateKey]bool),
		next:     b.Model.NumConstrs(),
	}
	b.ForEachDeferredState(func(r, n, ls int) {
		cc.deferred[stateKey{r: r, n: n, ls: ls}] = true
	})
	cols := ms.AppliedColumns
	for k := 0; k < len(cols); k++ {
		c := cols[k]
		nc := c.Cols
		if nc < 0 || nc > len(cols)-k-1 {
			rep.addf(ColShape, -1, "%v: %d companion columns, %d entries follow it", colLabel{k: k, c: c}, nc, len(cols)-k-1)
			nc = max(0, min(nc, len(cols)-k-1))
		}
		cc.column(k, ms.Columns.ColsAtRoot+k, c, cols[k+1:k+1+nc])
		k += nc
	}
	return rep
}

// colCheck is the state of one Columns certificate as it walks the applied
// columns in commit order.
type colCheck struct {
	rep    *Report
	b      *core.Built
	oracle *activityOracle
	// rows maps the key of every row the LP holds so far — the build's and
	// the companion rows opened by the columns walked — to its index.
	rows map[model.Key]int
	// deferred holds every state whose row and allocation variable the
	// build left out.
	deferred map[stateKey]bool
	// next is the lowest LP index the next companion row may take.
	next int
}

// stateKey names a link state (7): request r, state n, substrate link ls.
type stateKey struct{ r, n, ls int }

func (s stateKey) key(numNodes int) model.Key {
	return model.Key3(core.FamState, s.r, s.n, numNodes+s.ls)
}

// column certifies applied column k, LP column j, whose companion columns
// are comp (LP columns j+1, …): its coefficients over the rows held before
// it, then the companions it opens.
func (cc *colCheck) column(k, j int, c model.Column, comp []model.Column) {
	if !checkColumn(cc.rep, cc.b, cc.rows, cc.next, cc.oracle, k, c) {
		cc.next = max(cc.next, c.Row+len(c.Rows))
		return
	}
	cc.companions(k, j, c, comp)
}

// companions re-derives the states applied column k (LP column j) opens
// and compares its companion columns comp and rows with them. Each
// companion row must name exactly one companion column as its allocation
// variable a, and each companion column must be named by exactly one row;
// the column's +1 on a capacity row (9) names the state, which must be one
// the build left out, of the column's request on a link of its path, with
// no row yet; the row must be exactly the state row (7) over that a. Then
// every Maybe state on every link of the path must have its row.
func (cc *colCheck) companions(k, j int, c model.Column, comp []model.Column) {
	b, rep := cc.b, cc.rep
	name := colLabel{k: k, c: c}
	r, lv, links, _ := core.PathTagInfo(c)
	numNodes := b.Inst.Sub.NumNodes()
	if len(c.Rows) > 0 && c.Row < cc.next {
		rep.addf(ColShape, r, "%v: companion rows start at LP row %d, below %d", name, c.Row, cc.next)
	}
	onPath := make(map[int]bool, len(links))
	for _, ls := range links {
		onPath[ls] = true
	}
	named := make([]int, len(comp))
	d := b.Inst.Reqs[r].LinkDemand[lv]
	for i, row := range c.Rows {
		p, ok := companionEntry(row, j, len(comp))
		if !ok {
			rep.addf(ColRowStray, r, "%v: companion row %d names no single companion column of it", name, i)
			continue
		}
		a := j + 1 + p
		named[p]++
		st, ok := cc.stateOf(name, r, p, comp[p])
		if !ok {
			continue
		}
		if !onPath[st.ls] {
			rep.addf(ColRowStray, r, "%v: companion row %d opens state %d on link %d, off its path %v",
				name, i, st.n, st.ls, links)
			continue
		}
		key := st.key(numNodes)
		if at, dup := cc.rows[key]; dup {
			rep.addf(ColRowDup, r, "%v: companion row %d opens %v, already LP row %d", name, i, key, at)
			continue
		}
		idx, val, lb := expectedStateRow(b, st, int32(a), j, d)
		if cutRowKey(idx, val, lb, math.Inf(1)) != cutRowKey(row.Idx, row.Val, row.LB, row.UB) {
			rep.addf(ColRowCoef, r, "%v: companion row %d disagrees with the state row %v (got %v@%v in [%v, %v], expected %v@%v in [%v, +Inf])",
				name, i, key, row.Idx, row.Val, row.LB, row.UB, idx, val, lb)
		}
		cc.rows[key] = c.Row + i
	}
	for p, times := range named {
		if times != 1 {
			rep.addf(ColAllocStray, r, "%v: companion column %d (LP column %d) is named by %d companion rows, want 1",
				name, p, j+1+p, times)
		}
	}
	cc.next = max(cc.next, c.Row+len(c.Rows))
	for _, ls := range links {
		for n := 1; d > 0 && n <= len(b.Inst.Reqs); n++ {
			if cc.oracle.at(r, n) != depgraph.Maybe {
				continue
			}
			if _, ok := cc.rows[stateKey{r: r, n: n, ls: ls}.key(numNodes)]; !ok {
				rep.addf(ColRowMissing, r, "%v: no state row for state %d on link %d after it", name, n, ls)
			}
		}
	}
}

// companionEntry finds the one entry of a companion row of LP column j on
// its nc companion columns and reports that column's position among them.
func companionEntry(row model.Cut, j, nc int) (p int, ok bool) {
	for _, jj := range row.Idx {
		if q := int(jj) - j - 1; q >= 0 && q < nc {
			if ok {
				return 0, false
			}
			p, ok = q, true
		}
	}
	return p, ok
}

// stateOf certifies companion column a (the p-th one of request r's column
// name) as a state allocation variable — bounds [0, +Inf), objective 0,
// exactly +1 on one capacity row (9) — and names the deferred state of r
// whose capacity row that is.
func (cc *colCheck) stateOf(name colLabel, r, p int, a model.Column) (stateKey, bool) {
	if a.LB != 0 || !math.IsInf(a.UB, 1) || a.Obj != 0 {
		cc.rep.addf(ColAllocShape, r, "%v: companion column %d has bounds [%v, %v] obj %v, want [0, +Inf) obj 0",
			name, p, a.LB, a.UB, a.Obj)
	}
	//lint:allow floateq -- the capacity-row coefficient is the exact literal 1
	if len(a.Idx) != 1 || len(a.Val) != 1 || a.Val[0] != 1 || int(a.Idx[0]) < 0 || int(a.Idx[0]) >= cc.b.Model.NumConstrs() {
		cc.rep.addf(ColAllocShape, r, "%v: companion column %d has entries %v@%v, want +1 on one built capacity row",
			name, p, a.Idx, a.Val)
		return stateKey{}, false
	}
	key := cc.b.Model.RowKey(int(a.Idx[0]))
	st := stateKey{r: r, n: int(key.I), ls: int(key.J) - cc.b.Inst.Sub.NumNodes()}
	if key.Fam != core.FamCap || !cc.deferred[st] {
		cc.rep.addf(ColAllocStray, r, "%v: companion column %d sits on row %v, the capacity row of no state the build left out",
			name, p, key)
		return stateKey{}, false
	}
	return st, true
}

// expectedStateRow re-derives the state row (7) of st once column j with
// per-unit demand d routes over its link: a − d·λ_j − c·Σ_{i≤n} χ⁺ +
// c·Σ_{i≤n} χ⁻ ≥ −c, with a the state's allocation variable (its companion
// column) and c the link capacity.
func expectedStateRow(b *core.Built, st stateKey, a int32, j int, d float64) ([]int32, []float64, float64) {
	c := b.Inst.Sub.LinkCap[st.ls]
	idx, val := []int32{a, int32(j)}, []float64{1, -d}
	for i := 1; i <= st.n; i++ {
		if i < len(b.ChiPlus[st.r]) && b.ChiPlus[st.r][i].Valid() {
			idx, val = append(idx, int32(b.ChiPlus[st.r][i].Index())), append(val, -c)
		}
		if i < len(b.ChiMinus[st.r]) && b.ChiMinus[st.r][i].Valid() {
			idx, val = append(idx, int32(b.ChiMinus[st.r][i].Index())), append(val, c)
		}
	}
	return idx, val, -c
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

// checkColumn certifies applied column k's own coefficients over the rows
// the LP held before it (nRows of them, rows indexing their keys) and
// reports whether its tag and path are sound enough to check its companion
// rows.
func checkColumn(rep *Report, b *core.Built, rows map[model.Key]int, nRows int, oracle *activityOracle, k int, c model.Column) bool {
	name := colLabel{k: k, c: c}
	if len(c.Idx) != len(c.Val) || len(c.Idx) == 0 {
		rep.addf(ColShape, -1, "%v: %d indices, %d values", name, len(c.Idx), len(c.Val))
		return false
	}
	for _, i := range c.Idx {
		if int(i) < 0 || int(i) >= nRows {
			rep.addf(ColShape, -1, "%v: row %d outside the LP's %d rows", name, i, nRows)
			return false
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
		return false
	}
	if r < 0 || r >= len(b.Inst.Reqs) {
		rep.addf(ColTag, -1, "%v: request %d outside instance with %d requests", name, r, len(b.Inst.Reqs))
		return false
	}
	req := b.Inst.Reqs[r]
	if lv < 0 || lv >= req.G.NumEdges() {
		rep.addf(ColTag, r, "%v: virtual link %d outside request with %d links", name, lv, req.G.NumEdges())
		return false
	}
	u, v := req.G.Edge(lv)
	hu, hv := b.Opts.FixedMapping[r][u], b.Opts.FixedMapping[r][v]
	if hu == hv {
		rep.addf(ColPath, r, "%v serves virtual link %d whose endpoints share host %d — no path column should exist",
			name, lv, hu)
		return false
	}
	if !checkSimplePath(rep, b, name, r, links, hu, hv) {
		return false
	}

	wantIdx, wantVal, ok := expectedPathColumn(rep, b, rows, oracle, name, r, lv, links)
	if !ok {
		return true
	}
	if cutRowKey(wantIdx, wantVal, 0, 0) != cutRowKey(c.Idx, c.Val, 0, 0) {
		rep.addf(ColCoef, r,
			"%v: coefficients disagree with path %v (got %d terms %v@%v, expected %d terms %v@%v)",
			name, links, len(c.Idx), c.Idx, c.Val, len(wantIdx), wantIdx, wantVal)
	}
	return true
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

// expectedPathColumn re-derives the LP column the tagged path implies over
// the rows held before it: +1 on the convexity row, the per-state
// allocation coefficients of every traversed link (−d on the Maybe-state
// rows, +d directly on the Always-state capacity rows, per the Section IV-C
// presolve), and the unit flow-count coefficients on the DisableLinks
// activity rows. A Maybe state without a row yet is the column's to open:
// its −d sits in the companion row, which companions checks. Activity comes
// from a fresh dependency-graph analysis, not from the builder's registry.
func expectedPathColumn(rep *Report, b *core.Built, rows map[model.Key]int, oracle *activityOracle, name colLabel, r, lv int, links []int) ([]int32, []float64, bool) {
	var idx []int32
	var val []float64
	ok := true
	// add puts coef on the row under key; a missing row is a violation
	// unless the column may open it.
	add := func(key model.Key, coef float64, opens bool) {
		row, found := rows[key]
		switch {
		case found:
			idx, val = append(idx, int32(row)), append(val, coef)
		case !opens:
			rep.addf(ColCoef, r, "%v: model has no row %v for its path", name, key)
			ok = false
		}
	}
	add(model.Key2(core.FamConv, r, lv), 1, false)
	k := len(b.Inst.Reqs)
	numNodes := b.Inst.Sub.NumNodes()
	d := b.Inst.Reqs[r].LinkDemand[lv]
	for _, ls := range links {
		for n := 1; d > 0 && n <= k; n++ {
			switch oracle.at(r, n) {
			case depgraph.Maybe:
				add(model.Key3(core.FamState, r, n, numNodes+ls), -d, true)
			case depgraph.Always:
				add(model.Key2(core.FamCap, n, numNodes+ls), d, false)
			}
		}
		if b.Opts.Objective == core.DisableLinks {
			add(model.Key1(core.FamDis, ls), 1, false)
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
