package core

// Path-based link flows for the cΣ-Model (FlowPath mode), the column-side
// twin of the lazy precedence cuts in cuts.go. The arc formulation emits
// O(|E_R|·|E_S|) flow variables and O(|E_R|·|V_S|) conservation rows per
// request up front; the path formulation replaces all of it with one
// convexity row per virtual link,
//
//	Σ_p λ_p = x_R,
//
// a single statically seeded fewest-hops path column, and further path
// columns priced in on demand by a reduced-cost shortest-path pricer riding
// the branch-and-bound solver's column-generation pipeline (internal/mip).
// The two formulations have the same certified optimum: any feasible arc
// flow decomposes into simple paths plus cycles, and cycles only consume
// capacity without helping connectivity, so restricting to simple paths
// never cuts off an optimal embedding, while every path column maps back to
// a feasible arc flow.
//
// A restricted master can be infeasible where the full one is not (a seed
// path is capacity-blocked); the search then prices the same way from the
// relaxation's Farkas ray (internal/mip). Every integer point routes each
// accepted virtual link over substrate paths, and a forced request with no
// route makes the model infeasible.
//
// States arrive with the paths that need them. The build emits the state
// row (7) of a request's Maybe state on a substrate link, and its
// allocation variable a, only where a seed column of the request routes
// over the link. The others read a ≥ −c·(1 − Σc) with Σc ≤ 1 while no
// column of the request uses the link, which a ≥ 0 implies, and a only
// loosens its capacity row (9), so a sits at 0: leaving row and variable
// out changes neither the restricted master's optimum nor, extended by
// zeros, its duals or Farkas rays. The first priced column of the request
// over such a link opens every Maybe state there, its a as a companion
// column and its row as a companion row (pathPricer.Commit, appended right
// after the column by internal/mip). Capacity rows (9) arrive the same way:
// the build emits a link's capacity row in state n only where a seed column
// or a built allocation variable loads it. An empty one reads 0 ≤ c, which
// every column present satisfies with dual 0, so the first committed
// column that loads it opens it as a companion row: +d on the column for
// an Always state, +1 on the companion allocation variable of a Maybe state
// (which then has no entry of its own). The Always-state registrations and
// the node rows are built as before. On the WAN scenarios most link states
// never receive a path column, so the root LP carries neither their rows
// nor their variables.

import (
	"fmt"
	"math"
	"slices"

	"tvnep/internal/lp"
	"tvnep/internal/model"
	"tvnep/internal/numtol"
)

// pathTag is the pricer payload carried on every priced path column: which
// virtual link the column serves and the substrate-link sequence it routes
// over. Extract and internal/certify read it back from
// model.Solution.AppliedColumns.
type pathTag struct {
	r, lv int
	links []int
}

// PathTagInfo exposes a priced path column's payload — the (request, virtual
// link) pair it serves and its substrate-link sequence — to packages outside
// core (internal/certify re-validates every priced column against the
// substrate graph). ok is false when the column was not produced by the
// path pricer.
func PathTagInfo(c model.Column) (r, lv int, links []int, ok bool) {
	tag, ok := c.Tag.(pathTag)
	if !ok {
		return 0, 0, nil, false
	}
	return tag.r, tag.lv, tag.links, true
}

// MakePathTag constructs a path-column tag as the pricer would attach it.
// It exists for internal/certify's mutation tests, which forge tags to prove
// the column certificate rejects them; production columns get their tags from
// pathColumn.
func MakePathTag(r, lv int, links []int) interface{} {
	return pathTag{r: r, lv: lv, links: append([]int(nil), links...)}
}

// pathLinkDemand reports whether request r has any nontrivial virtual link
// with positive demand — i.e. whether any path column of r can ever
// participate in a link-capacity row.
func (b *Built) pathLinkDemand(r int) bool {
	req := b.Inst.Reqs[r]
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		if req.LinkDemand[lv] > 0 && b.convRow[r][lv] >= 0 {
			return true
		}
	}
	return false
}

// recordLinkUse registers "one unit of (r, lv)-flow over substrate link ls
// participates in row with coefficient sign·d_lv" for every nontrivial
// virtual link lv of r with positive demand d_lv. Seed columns receive
// exactly the same coefficients through addLinkAlloc, so priced and seeded
// paths are interchangeable LP columns.
func (b *Built) recordLinkUse(r, ls, row int, sign int8) {
	k := r*b.Inst.Sub.NumLinks() + ls
	b.linkUse[k] = append(b.linkUse[k], rowCoef{row: int32(row), sign: sign})
}

// sizeLinkUse carves the link-use lists out of one arena. Request r
// participates on a link in at most one row per state it can be active in
// (active[r] of them: its state row (7), built or opened, or the capacity
// row (9) of a state presolve proves it active in) and in one activity row
// (DisableLinks), so no list outgrows its share.
func (b *Built) sizeLinkUse(active []int) {
	nL := b.Inst.Sub.NumLinks()
	total := 0
	for _, a := range active {
		total += (a + 1) * nL
	}
	arena := make([]rowCoef, total)
	off := 0
	for r, a := range active {
		for ls := 0; ls < nL; ls++ {
			b.linkUse[r*nL+ls] = arena[off : off : off+a+1]
			off += a + 1
		}
	}
}

// recordLinkUseUnit registers a demand-independent unit-flow coefficient
// (the DisableLinks activity rows count flow, not allocation) on every
// nontrivial virtual link of every request.
func (b *Built) recordLinkUseUnit(ls, row int) {
	nL := b.Inst.Sub.NumLinks()
	for r, conv := range b.convRow {
		if slices.ContainsFunc(conv, func(i int) bool { return i >= 0 }) {
			b.linkUse[r*nL+ls] = append(b.linkUse[r*nL+ls], rowCoef{row: int32(row)})
		}
	}
}

// buildPathEmbedding is the FlowPath counterpart of buildEmbedding: the
// acceptance variables are identical, but instead of arc variables and
// conservation rows each virtual link gets a convexity row over path
// variables, seeded with one fewest-hops path. The path pricer, registered
// when any link needs a path, reads the link-use registry the rest of the
// build fills.
func buildPathEmbedding(b *Built) {
	if b.Kind != CSigma {
		panic(fmt.Sprintf("core: FlowPath requires the cΣ formulation, not %v", b.Kind))
	}
	if b.Opts.FixedMapping == nil {
		panic("core: FlowPath requires a fixed node mapping (path endpoints must be known at build time)")
	}
	m := b.Model
	inst := b.Inst
	sub := inst.Sub
	k := b.numReq()

	b.XR = make([]model.Var, k)
	b.Lambda = make([][][]model.Var, k)
	b.SeedPaths = make([][][][]int, k)
	b.convRow = make([][]int, k)
	b.linkUse = make([][]rowCoef, k*sub.NumLinks())
	b.deferred = make([][]deferredRow, k)
	b.opened = make([]int, k*sub.NumLinks())

	priced := false
	for r, req := range inst.Reqs {
		buildAcceptVar(b, r)
		nE := req.G.NumEdges()
		b.Lambda[r] = make([][]model.Var, nE)
		b.SeedPaths[r] = make([][][]int, nE)
		b.convRow[r] = make([]int, nE)
		for lv := 0; lv < nE; lv++ {
			u, v := req.G.Edge(lv)
			hu, hv := b.Opts.FixedMapping[r][u], b.Opts.FixedMapping[r][v]
			if hu == hv {
				// Both endpoints share a substrate node: the unit flow is
				// internal and no path (or row) is needed.
				b.convRow[r][lv] = -1
				continue
			}
			conv := b.row.Reset()
			if p, ok := sub.G.ShortestHopPath(hu, hv); ok {
				lam := m.Continuous(0, 1)
				b.Lambda[r][lv] = []model.Var{lam}
				b.SeedPaths[r][lv] = [][]int{p}
				conv.Add(1, lam)
			}
			conv.Add(-1, b.XR[r])
			b.convRow[r][lv] = m.AddEQ(conv, 0, model.Key2(FamConv, r, lv))
			priced = true
		}
	}
	if priced {
		m.RegisterPricer(&pathPricer{b: b})
	}
}

// buildAcceptVar creates x_R for request r with the acceptance pinning the
// objective and build options demand; shared by the arc and path embeddings.
func buildAcceptVar(b *Built, r int) {
	m := b.Model
	b.XR[r] = m.Binary()
	forced := b.Opts.Objective.FixedSet()
	if b.Opts.ForceAccept != nil && r < len(b.Opts.ForceAccept) && b.Opts.ForceAccept[r] {
		forced = true
	}
	if forced {
		m.Fix(b.XR[r], 1)
	}
}

// addSeedLinkAlloc is addLinkAlloc's FlowPath branch: it appends coef
// times the allocation on substrate link ls from the statically seeded path
// columns (priced columns contribute through linkUse instead).
func (b *Built) addSeedLinkAlloc(e *model.LinExpr, coef float64, r, ls int) {
	req := b.Inst.Reqs[r]
	for lv := 0; lv < req.G.NumEdges(); lv++ {
		d := req.LinkDemand[lv]
		if d <= 0 {
			continue
		}
		for kp, p := range b.SeedPaths[r][lv] {
			for _, pls := range p {
				if pls == ls {
					e.Add(coef*d, b.Lambda[r][lv][kp])
				}
			}
		}
	}
}

// pathColumn assembles the LP column of path (a substrate-link sequence,
// which the column's tag keeps) for virtual link (r, lv): +1 on the
// convexity row plus the registered per-unit capacity, state and activity
// coefficients of every traversed link. The solver's column pool
// canonicalizes (sorts, merges) the raw entries.
func (b *Built) pathColumn(r, lv int, path []int) model.Column {
	c := model.Column{LB: 0, UB: 1, Obj: 0, Tag: pathTag{r: r, lv: lv, links: path}}
	c.Idx, c.Val = b.pathCoefs(r, lv, path)
	return c
}

// pathCoefs returns the raw row entries of pathColumn.
func (b *Built) pathCoefs(r, lv int, path []int) ([]int32, []float64) {
	d := b.Inst.Reqs[r].LinkDemand[lv]
	use := b.linkUse[r*b.Inst.Sub.NumLinks():]
	n := 1
	for _, ls := range path {
		n += len(use[ls])
	}
	idx := append(make([]int32, 0, n), int32(b.convRow[r][lv]))
	val := append(make([]float64, 0, n), 1)
	for _, ls := range path {
		for _, rc := range use[ls] {
			c, ok := rc.at(d)
			if row, open := b.rowOf(rc.row); ok && open {
				idx = append(idx, row)
				val = append(val, c)
			}
		}
	}
	return idx, val
}

// pathPricer prices path columns for every nontrivial virtual link: the
// reduced cost of a path column is −y_conv − Σ_{ls∈p} cost(ls) with
// cost(ls) = Σ_{(row,coef)∈linkUse} coef·y_row, so the most improving path
// is the cost-shortest substrate path. At an exactly dual-feasible point
// every cost(ls) is nonnegative — the state rows contribute (−d)·(y ≤ 0),
// the capacity and activity rows (+d)·(y ≥ 0) — so Dijkstra applies;
// LP-tolerance dual noise is clamped away and the winner re-checked with the
// exact reduced cost before it is offered; a virtual link where no path
// could pass that recheck gets no search. A closed capacity row counts with
// dual 0. Path columns carry objective 0 and a Farkas ray has the duals'
// signs on these rows, so the same code prices a ray (x nil). A pure
// function of duals and the rows opened so far, with index-ordered
// tie-breaks, as the mip.RowPricer contract requires.
type pathPricer struct {
	b *Built
}

// Price implements model.Pricer.
func (pp *pathPricer) Price(duals, x []float64) []model.Column {
	b := pp.b
	sub := b.Inst.Sub
	w := make([]float64, sub.NumLinks())
	var out []model.Column
	for r, req := range b.Inst.Reqs {
		use := b.linkUse[r*len(w):]
		for lv := 0; lv < req.G.NumEdges(); lv++ {
			if b.convRow[r][lv] < 0 {
				continue
			}
			d := req.LinkDemand[lv]
			// gain bounds every path's reduced cost −y_conv − Σ_{ls∈p}
			// cost(ls) from above: only links of negative cost (dual noise)
			// can raise it.
			gain := -duals[b.convRow[r][lv]]
			for ls := range w {
				c := 0.0
				for _, rc := range use[ls] {
					k, ok := rc.at(d)
					if row, open := b.rowOf(rc.row); ok && open {
						c += k * duals[row]
					}
				}
				if c < 0 {
					gain -= c
					c = 0 // dual noise; the exact recheck below decides
				}
				w[ls] = c
			}
			if gain <= numtol.PriceRedTol {
				continue // no path can pass the exact recheck
			}
			u, v := req.G.Edge(lv)
			hu, hv := b.Opts.FixedMapping[r][u], b.Opts.FixedMapping[r][v]
			path, ok := sub.G.ShortestWeightedPath(hu, hv, w)
			if !ok {
				continue
			}
			col := b.pathColumn(r, lv, path)
			if lp.CandidateReducedCost(col.Obj, col.Idx, col.Val, duals) > numtol.PriceRedTol {
				out = append(out, col)
			}
		}
	}
	return out
}

// Reset implements mip.RowPricer: it closes every deferred row the last
// search opened, truncating the state rows' entries off the link-use
// registry and marking the capacity rows closed, so a search starts from
// the build's rows.
func (pp *pathPricer) Reset() {
	b := pp.b
	for k, c := range b.opened {
		if c == 0 {
			continue
		}
		b.linkUse[k] = b.linkUse[k][:len(b.linkUse[k])-c]
		b.opened[k] = 0
	}
	for i := range b.caps {
		b.caps[i].row = -1
	}
}

// Commit implements mip.RowPricer. It re-derives c over the rows opened
// so far and opens, link by link along c's path, the rows c loads that the
// LP does not hold yet. On a link that no earlier column of its request
// routes over, each of the request's deferred Maybe states (in build order)
// brings its allocation variable a as a companion column — LP column j+1,
// j+2, …, bounds [0, ∞), objective 0, +1 on the state's capacity row (9)
// if that row is open — and its state row (7) as a companion row — LP row
// m, m+1, …, carrying +1 on that a and the −d coefficient of c itself (LP
// column j) — followed by its capacity row if that is still closed, which
// then carries the +1 on a. Then every closed capacity row of an Always
// state of the request on the link (in build order) opens carrying c's +d.
// The opened rows join the link-use registry, so every later column over
// the link carries its coefficient on them and the pricer prices their
// duals.
func (pp *pathPricer) Commit(c model.Column, j, m int) (model.Column, []model.Column, []model.Cut) {
	b := pp.b
	tag := c.Tag.(pathTag)
	r := tag.r
	c.Idx, c.Val = b.pathCoefs(r, tag.lv, tag.links)
	d := b.Inst.Reqs[r].LinkDemand[tag.lv]
	if d <= 0 {
		return c, nil, nil
	}
	nL := b.Inst.Sub.NumLinks()
	numNodes := b.Inst.Sub.NumNodes()
	var cols []model.Column
	var rows []model.Cut
	// openCap opens closed capacity row ^ref carrying coef on LP column jj.
	openCap := func(ref int32, jj int, coef float64) {
		dc := &b.caps[^ref]
		dc.row = int32(m + len(rows))
		rows = append(rows, model.Cut{
			Idx: []int32{int32(jj)}, Val: []float64{coef},
			LB: math.Inf(-1), UB: b.resourceCap(numNodes + dc.ls),
		})
	}
	for _, ls := range tag.links {
		use := b.linkUse[r*nL+ls]
		if b.opened[r*nL+ls] == 0 {
			for _, dr := range b.deferred[r] {
				if dr.ls != ls {
					continue
				}
				a := j + 1 + len(cols)
				col := model.Column{LB: 0, UB: model.Inf()}
				capRow, open := b.rowOf(dr.capRow)
				if open {
					col.Idx, col.Val = []int32{capRow}, []float64{1}
				}
				cols = append(cols, col)
				capL := b.resourceCap(numNodes + ls)
				con := b.row.Reset()
				b.addStateChi(con, r, dr.n, capL)
				row := model.CutGE(con, -capL)
				row.Idx = append(row.Idx, int32(j), int32(a))
				row.Val = append(row.Val, -d, 1)
				b.recordLinkUse(r, ls, m+len(rows), -1)
				b.opened[r*nL+ls]++
				rows = append(rows, row)
				if !open {
					openCap(dr.capRow, a, 1)
				}
			}
		}
		for _, rc := range use {
			if _, open := b.rowOf(rc.row); rc.sign > 0 && !open {
				openCap(rc.row, j, d)
			}
		}
	}
	return c, cols, rows
}
