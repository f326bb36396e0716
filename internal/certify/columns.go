package certify

// Column certificate: re-verifies every path column a FlowPath cΣ solve
// priced through the column-generation pipeline (internal/core's path pricer
// feeding internal/mip's column pool). Each applied column must (a) carry a
// path tag naming the virtual link it serves, (b) route that tag over a
// contiguous simple directed substrate path between the pinned endpoint
// hosts, (c) carry exactly the LP coefficients that path implies, and (d)
// open exactly the rows its path loads that neither the build nor an
// earlier column holds. The build leaves out the state rows (7) of a
// request on links no seed column of it routes over, with their allocation
// variables, and the capacity rows (9) that no seed column and no built
// allocation variable loads. The first priced column that loads such a row
// opens it: a state brings its variable as a companion column and its row
// as a companion row, a capacity row arrives as a companion row carrying
// the column's load. The expected coefficients and companions are
// re-derived here from the dependency graph, the seed paths, the compiled
// row keys and the χ variables — independently of the link-use registry the
// builder and pricer share — so a registry corrupted at build time cannot
// vouch for the columns it produced.

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
	// ColRowMissing: a state row (7) or capacity row (9) a column's path
	// loads exists neither in the build nor among the companion rows of the
	// column or an earlier one.
	ColRowMissing Kind = "col-row-missing"
	// ColRowCoef: a companion row's coefficients or bounds differ from the
	// state row (7) or capacity row (9) it opens.
	ColRowCoef Kind = "col-row-coef"
	// ColRowStray: a companion row names no single companion column of its
	// path column (a capacity row of an Always state names the column
	// alone), or opens a row for a state or link its path does not load.
	ColRowStray Kind = "col-row-stray"
	// ColRowDup: a companion row opens a row that already exists, in the
	// build, among an earlier column's companions or among its own.
	ColRowDup Kind = "col-row-dup"
	// ColAllocShape: a companion column differs from a state allocation
	// variable: bounds other than [0, +Inf), a nonzero objective, or entries
	// other than one +1 on the capacity row (9) of the state it opens — none
	// when that row opens with it.
	ColAllocShape Kind = "col-alloc-shape"
	// ColAllocStray: a companion column opens no state the build left out:
	// its path opens fewer states, it sits on a row that is not the capacity
	// row of its state, or it is named by other than one state row.
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
		rows:   rowIndexByKey(b.Model),
		opened: make(map[int]model.Key),
		oracle: newActivityOracle(b),
		next:   b.Model.NumConstrs(),
	}
	cc.deferral = newDeferral(b, cc.oracle)
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
	*deferral
	// rows maps the key of every row the LP holds so far — the build's and
	// the companion rows opened by the columns walked — to its index.
	rows map[model.Key]int
	// opened maps the LP index of every companion row opened so far to the
	// key of the row it opens.
	opened map[int]model.Key
	// next is the lowest LP index the next companion row may take.
	next int
}

// stateKey names a link state (7): request r, state n, substrate link ls.
type stateKey struct{ r, n, ls int }

func (s stateKey) key(numNodes int) model.Key {
	return model.Key3(core.FamState, s.r, s.n, numNodes+s.ls)
}

// capKey is the key of the capacity row (9) of state n on substrate link ls.
func capKey(n, ls, numNodes int) model.Key {
	return model.Key2(core.FamCap, n, numNodes+ls)
}

// deferral is what a FlowPath build leaves out, re-derived from the
// activity analysis and the seed paths: request r's Maybe state n on link
// ls (row (7) and allocation variable) when r has link demand and no seed
// column of r with demand routes over ls, and the capacity row (9) of
// state n on ls when some request active there has link demand but none
// routes a seed column with demand over ls.
type deferral struct {
	k, nL int
	state []bool // [(r·(k+1)+n)·nL+ls]
	cap   []bool // [n·nL+ls]
}

func newDeferral(b *core.Built, oracle *activityOracle) *deferral {
	k, nL := len(b.Inst.Reqs), b.Inst.Sub.NumLinks()
	df := &deferral{k: k, nL: nL, state: make([]bool, k*(k+1)*nL), cap: make([]bool, (k+1)*nL)}
	carries := make([]bool, k)
	seeded := make([]bool, k*nL)
	for r, req := range b.Inst.Reqs {
		for lv := 0; lv < req.G.NumEdges(); lv++ {
			u, v := req.G.Edge(lv)
			if req.LinkDemand[lv] <= 0 || b.Opts.FixedMapping[r][u] == b.Opts.FixedMapping[r][v] {
				continue
			}
			carries[r] = true
			for _, p := range b.SeedPaths[r][lv] {
				for _, ls := range p {
					seeded[r*nL+ls] = true
				}
			}
		}
	}
	for n := 1; n <= k; n++ {
		for ls := 0; ls < nL; ls++ {
			wanted, loaded := false, false
			for r := 0; r < k; r++ {
				act := oracle.at(r, n)
				if act == depgraph.Never || !carries[r] {
					continue
				}
				wanted = true
				switch {
				case seeded[r*nL+ls]:
					loaded = true
				case act == depgraph.Maybe:
					df.state[(r*(k+1)+n)*nL+ls] = true
				}
			}
			df.cap[n*nL+ls] = wanted && !loaded
		}
	}
	return df
}

// stateDeferred reports whether the build left state st out.
func (df *deferral) stateDeferred(st stateKey) bool {
	return st.r >= 0 && st.r < df.k && st.n >= 1 && st.n <= df.k && st.ls >= 0 && st.ls < df.nL &&
		df.state[(st.r*(df.k+1)+st.n)*df.nL+st.ls]
}

// capDeferred reports whether the build left the capacity row of state n
// on link ls out.
func (df *deferral) capDeferred(n, ls int) bool { return df.cap[n*df.nL+ls] }

// keyAt returns the key of the row at LP index i, built or opened.
func (cc *colCheck) keyAt(i int) model.Key {
	if i < cc.b.Model.NumConstrs() {
		return cc.b.Model.RowKey(i)
	}
	return cc.opened[i]
}

// column certifies applied column k, LP column j, whose companion columns
// are comp (LP columns j+1, …): its coefficients over the rows held before
// it, then the companions it opens.
func (cc *colCheck) column(k, j int, c model.Column, comp []model.Column) {
	if !cc.checkColumn(k, c) {
		cc.next = max(cc.next, c.Row+len(c.Rows))
		return
	}
	cc.companions(k, j, c, comp)
}

// wantCol is a companion column a path column must open: the allocation
// variable of state st, with capRow the LP row of the state's capacity row
// (9) when the LP holds it before the column, −1 when it opens with it.
type wantCol struct {
	st     stateKey
	capRow int
}

// wantRow is a companion row a path column must open: the row under key,
// with content its cutRowKey; target is the companion position of the one
// column it names among the column's companions, −1 when it names the path
// column alone (the capacity row of an Always state), and capacity tells a
// capacity row (9) from a state row (7).
type wantRow struct {
	key      model.Key
	content  string
	target   int
	capacity bool
	matched  bool
}

// expectedCompanions re-derives, in the order the pricer opens them, the
// companion columns and rows of column j of request r with per-unit demand
// d over links: link by link, each Maybe state of r without a row (in state
// order) brings its allocation column, its state row (7) and, if the LP
// does not hold it, its capacity row (9) with +1 on that column; then each
// Always state of r whose capacity row the LP does not hold opens it with
// the column's +d.
func (cc *colCheck) expectedCompanions(name colLabel, r int, links []int, j int, d float64) ([]wantCol, []wantRow) {
	b := cc.b
	numNodes := b.Inst.Sub.NumNodes()
	var cols []wantCol
	var rows []wantRow
	capRow := func(n, ls, target, col int, coef float64) {
		idx, val := []int32{int32(col)}, []float64{coef}
		rows = append(rows, wantRow{
			key:     capKey(n, ls, numNodes),
			content: cutRowKey(idx, val, math.Inf(-1), b.Inst.Sub.LinkCap[ls]),
			target:  target, capacity: true,
		})
	}
	for _, ls := range links {
		for n := 1; d > 0 && n <= cc.k; n++ {
			st := stateKey{r: r, n: n, ls: ls}
			if cc.oracle.at(r, n) != depgraph.Maybe {
				continue
			}
			if _, ok := cc.rows[st.key(numNodes)]; ok {
				continue
			}
			if !cc.stateDeferred(st) {
				cc.rep.addf(ColRowMissing, r, "%v: the build holds no state row for state %d on link %d", name, n, ls)
				continue
			}
			p := len(cols)
			at, open := cc.rows[capKey(n, ls, numNodes)]
			if !open {
				at = -1
			}
			cols = append(cols, wantCol{st: st, capRow: at})
			idx, val, lb := expectedStateRow(b, st, int32(j+1+p), j, d)
			rows = append(rows, wantRow{key: st.key(numNodes), content: cutRowKey(idx, val, lb, math.Inf(1)), target: p})
			if !open {
				capRow(n, ls, p, j+1+p, 1)
			}
		}
		for n := 1; d > 0 && n <= cc.k; n++ {
			if cc.oracle.at(r, n) != depgraph.Always {
				continue
			}
			if _, ok := cc.rows[capKey(n, ls, numNodes)]; !ok && cc.capDeferred(n, ls) {
				capRow(n, ls, -1, j, d)
			}
		}
	}
	return cols, rows
}

// companions compares column k's (LP column j's) companion columns comp and
// rows with the ones its path must open. A companion column is the
// allocation variable of the state at its position; a companion row is
// matched to the first unmatched expected row with the same content, and
// one that matches none is named by what it claims to open — the companion
// column or the path column it names, and whether it is a capacity row (a
// single entry) or a state row. Every expected row left unmatched is
// missing, and each companion column must be named by exactly one state
// row.
func (cc *colCheck) companions(k, j int, c model.Column, comp []model.Column) {
	b, rep := cc.b, cc.rep
	name := colLabel{k: k, c: c}
	r, lv, links, _ := core.PathTagInfo(c)
	if len(c.Rows) > 0 && c.Row < cc.next {
		rep.addf(ColShape, r, "%v: companion rows start at LP row %d, below %d", name, c.Row, cc.next)
	}
	onPath := make(map[int]bool, len(links))
	for _, ls := range links {
		onPath[ls] = true
	}
	cols, rows := cc.expectedCompanions(name, r, links, j, b.Inst.Reqs[r].LinkDemand[lv])
	for p, a := range comp {
		cc.allocColumn(name, r, p, a, cols, onPath)
	}
	named := make([]int, len(comp))
	for i, row := range c.Rows {
		p, ok := companionEntry(row, j, len(comp))
		capacity := len(row.Idx) == 1
		if ok && !capacity {
			named[p]++
		}
		target := p
		if !ok {
			if !capacity || int(row.Idx[0]) != j {
				rep.addf(ColRowStray, r, "%v: companion row %d names no single companion column of it", name, i)
				continue
			}
			target = -1
		}
		content := cutRowKey(row.Idx, row.Val, row.LB, row.UB)
		if w := firstRow(rows, func(w *wantRow) bool { return !w.matched && w.content == content }); w != nil {
			w.matched = true
			cc.hold(w.key, c.Row+i)
			continue
		}
		if w := firstRow(rows, func(w *wantRow) bool { return w.matched && w.content == content }); w != nil {
			rep.addf(ColRowDup, r, "%v: companion row %d opens %v a second time", name, i, w.key)
			continue
		}
		if w := firstRow(rows, func(w *wantRow) bool {
			return !w.matched && w.target == target && w.capacity == capacity
		}); w != nil {
			w.matched = true
			rep.addf(ColRowCoef, r, "%v: companion row %d disagrees with the row %v it opens (got %v@%v in [%v, %v])",
				name, i, w.key, row.Idx, row.Val, row.LB, row.UB)
			cc.hold(w.key, c.Row+i)
			continue
		}
		switch {
		case target >= len(cols):
			rep.addf(ColRowStray, r, "%v: companion row %d names companion column %d, which opens no state", name, i, target)
		case target >= 0 && capacity:
			rep.addf(ColRowDup, r, "%v: companion row %d opens the capacity row of %v, already LP row %d",
				name, i, cols[target].st.key(b.Inst.Sub.NumNodes()), cols[target].capRow)
		case target >= 0:
			rep.addf(ColRowDup, r, "%v: companion row %d is a second state row of companion column %d", name, i, target)
		default:
			rep.addf(ColRowStray, r, "%v: companion row %d opens a capacity row (%v@%v ≤ %v) that no state on its path %v needs",
				name, i, row.Idx, row.Val, row.UB, links)
		}
	}
	for _, w := range rows {
		if !w.matched {
			rep.addf(ColRowMissing, r, "%v: no row %v after it", name, w.key)
		}
	}
	for p, times := range named {
		if times != 1 {
			rep.addf(ColAllocStray, r, "%v: companion column %d (LP column %d) is named by %d companion state rows, want 1",
				name, p, j+1+p, times)
		}
	}
	cc.next = max(cc.next, c.Row+len(c.Rows))
}

// firstRow returns the first of rows that ok accepts, or nil.
func firstRow(rows []wantRow, ok func(*wantRow) bool) *wantRow {
	for i := range rows {
		if ok(&rows[i]) {
			return &rows[i]
		}
	}
	return nil
}

// hold records that LP row i opens the row under key.
func (cc *colCheck) hold(key model.Key, i int) {
	cc.rows[key] = i
	cc.opened[i] = key
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

// allocColumn certifies companion column a, the p-th one of request r's
// column name, as the allocation variable of the state cols[p] names:
// bounds [0, +Inf), objective 0, and exactly +1 on the state's capacity row
// (9) when the LP holds it before the column, no entry when it opens with
// it. An entry on another row is named by the row it sits on.
func (cc *colCheck) allocColumn(name colLabel, r, p int, a model.Column, cols []wantCol, onPath map[int]bool) {
	rep := cc.rep
	if a.LB != 0 || !math.IsInf(a.UB, 1) || a.Obj != 0 {
		rep.addf(ColAllocShape, r, "%v: companion column %d has bounds [%v, %v] obj %v, want [0, +Inf) obj 0",
			name, p, a.LB, a.UB, a.Obj)
	}
	if p >= len(cols) {
		rep.addf(ColAllocStray, r, "%v: companion column %d opens no state; its path opens %d", name, p, len(cols))
		return
	}
	want := cols[p]
	numNodes := cc.b.Inst.Sub.NumNodes()
	if want.capRow < 0 {
		if len(a.Idx) != 0 || len(a.Val) != 0 {
			rep.addf(ColAllocShape, r, "%v: companion column %d has entries %v@%v, want none: the capacity row of %v opens with it",
				name, p, a.Idx, a.Val, want.st.key(numNodes))
		}
		return
	}
	//lint:allow floateq -- the capacity-row coefficient is the exact literal 1
	if len(a.Idx) != 1 || len(a.Val) != 1 || a.Val[0] != 1 || int(a.Idx[0]) < 0 || int(a.Idx[0]) >= cc.next {
		rep.addf(ColAllocShape, r, "%v: companion column %d has entries %v@%v, want +1 on capacity row %d",
			name, p, a.Idx, a.Val, want.capRow)
		return
	}
	if int(a.Idx[0]) == want.capRow {
		return
	}
	key := cc.keyAt(int(a.Idx[0]))
	st := stateKey{r: r, n: int(key.I), ls: int(key.J) - numNodes}
	switch {
	case key.Fam != core.FamCap || !cc.stateDeferred(st):
		rep.addf(ColAllocStray, r, "%v: companion column %d sits on row %v, the capacity row of no state the build left out",
			name, p, key)
	case !onPath[st.ls]:
		rep.addf(ColRowStray, r, "%v: companion column %d opens state %d on link %d, off its path",
			name, p, st.n, st.ls)
	default:
		rep.addf(ColAllocStray, r, "%v: companion column %d sits on the capacity row of %v, want that of %v",
			name, p, st.key(numNodes), want.st.key(numNodes))
	}
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
// the LP held before it and reports whether its tag and path are sound
// enough to check its companions.
func (cc *colCheck) checkColumn(k int, c model.Column) bool {
	rep, b, nRows := cc.rep, cc.b, cc.next
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

	wantIdx, wantVal, ok := cc.expectedPathColumn(name, r, lv, links)
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
// activity rows. A Maybe state without a row yet, or an Always state whose
// capacity row the build left out and the LP does not hold yet, is the
// column's to open: its coefficient sits in the companion row, which
// companions checks. Activity comes from a fresh dependency-graph analysis,
// not from the builder's registry.
func (cc *colCheck) expectedPathColumn(name colLabel, r, lv int, links []int) ([]int32, []float64, bool) {
	rep, b, rows, oracle := cc.rep, cc.b, cc.rows, cc.oracle
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
				add(capKey(n, ls, numNodes), d, cc.capDeferred(n, ls))
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
