package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// colGenProblem builds a randomized capacity-release model with a genuine
// master/pricing split: binary facilities y_j (static, integer) pay an
// opening cost f_j and release capacity u_j on their linking row
// Σ_p a_{jp}·λ_p − u_j·y_j ≤ 0, while continuous pattern columns λ_p earn a
// profit over 1–3 facilities' capacity. The LP relaxation opens facilities
// fractionally to exactly match pattern usage, so branch and bound has to
// work for its optimum — at different y fixings different patterns price in,
// which is what exercises pricing in the tree, not just at the root.
//
// When full is true every pattern is emitted as a static LP column and the
// returned lazy list is empty; otherwise the LP holds only the facilities
// and every pattern comes back as a lazy Column for a Pricer to offer.
func colGenProblem(seed int64, nFac, nPat int, full bool) (*Problem, []Column) {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	caps := make([]float64, nFac)
	for j := 0; j < nFac; j++ {
		caps[j] = 2 + rng.Float64()*6
		p.AddCol(-(1 + rng.Float64()*3), 0, 1) // opening cost
	}
	var pats []Column
	for q := 0; q < nPat; q++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		var idx []int32
		var val []float64
		for len(idx) < k {
			j := rng.Intn(nFac)
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, int32(j))
			val = append(val, 0.5+rng.Float64()*1.5)
		}
		pats = append(pats, Column{Idx: idx, Val: val, LB: 0,
			UB: 1 + rng.Float64()*3, Obj: 1 + rng.Float64()*4})
	}
	var lazy []Column
	patCol := make([]int32, len(pats))
	for q, c := range pats {
		if full {
			patCol[q] = int32(p.AddCol(c.Obj, c.LB, c.UB))
		} else {
			lazy = append(lazy, c)
		}
	}
	for j := 0; j < nFac; j++ {
		idx := []int32{int32(j)}
		val := []float64{-caps[j]}
		if full {
			for q, c := range pats {
				for t, i := range c.Idx {
					if int(i) == j {
						idx = append(idx, patCol[q])
						val = append(val, c.Val[t])
					}
				}
			}
		}
		p.AddLE(idx, val, 0)
	}
	return &Problem{LP: p, Integer: allInteger(nFac)}, lazy
}

// patternPricer is the test Pricer: it holds the full formulation's lazy
// pattern columns and returns the ones with improving reduced cost at the
// dual point, or against the Farkas ray with objective 0 when x is nil — a
// pure function of duals, as the contract requires. Appended columns are
// re-offered freely; the pool's dedup absorbs them.
type patternPricer struct {
	cols     []Column
	minimize bool
}

func (pp *patternPricer) Price(duals, x []float64) []Column {
	var out []Column
	for _, c := range pp.cols {
		obj := c.Obj
		if x == nil {
			obj = 0
		}
		d := lp.CandidateReducedCost(obj, c.Idx, c.Val, duals)
		if pp.minimize {
			d = -d
		}
		if d > numtol.PriceRedTol {
			out = append(out, c)
		}
	}
	return out
}

// TestPricingMatchesStaticSolve is the correctness anchor: solving the
// restricted master with a Pricer must reach exactly the optimum of the full
// statically built formulation, because pricing to convergence closes the
// restricted relaxation at every node. Checked across shapes and both
// optimization senses.
func TestPricingMatchesStaticSolve(t *testing.T) {
	shapes := []struct {
		seed       int64
		nFac, nPat int
	}{
		{3, 4, 12}, {7, 5, 20}, {11, 6, 30}, {19, 3, 8}, {23, 8, 40},
	}
	sawTreeCols := false
	for _, sh := range shapes {
		full, _ := colGenProblem(sh.seed, sh.nFac, sh.nPat, true)
		restricted, lazy := colGenProblem(sh.seed, sh.nFac, sh.nPat, false)
		want := Solve(context.Background(), full, nil)
		if want.Status != StatusOptimal {
			t.Fatalf("seed %d: full status %v", sh.seed, want.Status)
		}
		got := Solve(context.Background(), restricted, &Options{
			Pricers: []Pricer{&patternPricer{cols: lazy}},
		})
		if got.Status != StatusOptimal {
			t.Fatalf("seed %d: priced status %v", sh.seed, got.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: priced obj %v differs from static %v", sh.seed, got.Obj, want.Obj)
		}
		if got.Columns.ColsAtRoot != restricted.LP.NumCols() {
			t.Errorf("seed %d: ColsAtRoot %d, want %d", sh.seed, got.Columns.ColsAtRoot, restricted.LP.NumCols())
		}
		if got.Columns.PricedCols != len(got.AppliedColumns) {
			t.Errorf("seed %d: PricedCols %d != len(AppliedColumns) %d",
				sh.seed, got.Columns.PricedCols, len(got.AppliedColumns))
		}
		if got.Columns.PricedCols == 0 {
			t.Errorf("seed %d: no column priced in; the shape no longer exercises pricing", sh.seed)
		}
		if got.Columns.Rounds > 1 {
			sawTreeCols = true
		}
		// Validity half of the Pricer contract, end to end: every appended
		// column must be one of the full formulation's pattern columns.
		known := map[string]bool{}
		for _, c := range lazy {
			o := colOp(c)
			if o.idx, o.val = lp.Canonical(o.idx, o.val); len(o.idx) > 0 {
				known[o.key()] = true
			}
		}
		for k, c := range got.AppliedColumns {
			if !known[columnKey(c)] {
				t.Errorf("seed %d: applied column %d is not a formulation column", sh.seed, k)
			}
		}
	}
	if !sawTreeCols {
		t.Error("no shape needed more than one pricing round; the cases are too easy")
	}
}

// demandProblem is colGenProblem over five facilities and twenty patterns
// plus a demand row Σ_p λ_p ≥ demand, which the restricted master (no
// pattern columns) cannot meet: its root relaxation is infeasible until
// Farkas pricing brings patterns in. With profit −1 the patterns cost what
// they earned, so only their Farkas reduced cost, not their objective,
// recommends them.
func demandProblem(seed int64, full bool, demand, profit float64) (*Problem, []Column) {
	const nFac = 5
	mp, lazy := colGenProblem(seed, nFac, 20, full)
	var idx []int32
	var val []float64
	for j := nFac; j < mp.LP.NumCols(); j++ {
		mp.LP.Obj[j] *= profit
		idx, val = append(idx, int32(j)), append(val, 1)
	}
	row := mp.LP.AddGE(idx, val, demand)
	for q := range lazy {
		lazy[q].Obj *= profit
		lazy[q].Idx = append(lazy[q].Idx, int32(row))
		lazy[q].Val = append(lazy[q].Val, 1)
	}
	return mp, lazy
}

// TestFarkasPricingRepairsInfeasibleMaster: a restricted master that starts
// infeasible must be repaired by pricing from its Farkas ray and reach the
// full formulation's optimum; one that no column set can repair must end
// infeasible.
func TestFarkasPricingRepairsInfeasibleMaster(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 7, 11} {
		profit := float64(1 - 2*(seed%2))
		full, _ := demandProblem(seed, true, 1, profit)
		restricted, lazy := demandProblem(seed, false, 1, profit)
		want := Solve(ctx, full, nil)
		if want.Status != StatusOptimal {
			t.Fatalf("seed %d: full status %v", seed, want.Status)
		}
		got := Solve(ctx, restricted, &Options{Pricers: []Pricer{&patternPricer{cols: lazy}}})
		if got.Root.Status != lp.StatusInfeasible {
			t.Fatalf("seed %d: restricted root relaxation %v, want infeasible", seed, got.Root.Status)
		}
		if got.Status != StatusOptimal {
			t.Fatalf("seed %d: priced status %v", seed, got.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: priced obj %v differs from static %v", seed, got.Obj, want.Obj)
		}
		rel := Relax(ctx, restricted, &Options{Pricers: []Pricer{&patternPricer{cols: lazy}}})
		if wantRel := Relax(ctx, full, nil); rel.Status != StatusOptimal ||
			math.Abs(rel.Obj-wantRel.Obj) > 1e-6*(1+math.Abs(wantRel.Obj)) {
			t.Errorf("seed %d: priced relaxation %v (%v), full %v", seed, rel.Status, rel.Obj, wantRel.Obj)
		}
	}
	restricted, lazy := demandProblem(3, false, 1e3, 1)
	got := Solve(ctx, restricted, &Options{Pricers: []Pricer{&patternPricer{cols: lazy}}})
	if got.Status != StatusInfeasible || got.Columns.PricedCols == 0 {
		t.Fatalf("unmeetable demand: status %v after %d priced columns, want infeasible after some",
			got.Status, got.Columns.PricedCols)
	}
}

// TestPricingSmallBatchConverges: a shape whose root prices in more columns
// than one round appends (priceBatch) takes several rounds and still lands
// on the static optimum.
func TestPricingSmallBatchConverges(t *testing.T) {
	full, _ := colGenProblem(13, 12, 100, true)
	restricted, lazy := colGenProblem(13, 12, 100, false)
	want := Solve(context.Background(), full, nil)
	got := Solve(context.Background(), restricted, &Options{Pricers: []Pricer{&patternPricer{cols: lazy}}})
	if got.Status != StatusOptimal {
		t.Fatalf("status %v", got.Status)
	}
	if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
		t.Errorf("obj %v differs from static %v", got.Obj, want.Obj)
	}
	if c := got.Columns; c.PricedCols <= priceBatch || c.Rounds*priceBatch < c.PricedCols {
		t.Errorf("%d columns appended in %d rounds of at most %d", c.PricedCols, c.Rounds, priceBatch)
	}
}

// columnKey is the pool key of an already-canonical column.
func columnKey(c Column) string {
	o := colOp(c)
	return o.key()
}

// rowPatternPricer is patternPricer over a master that leaves out the
// linking row of every facility but the first while no pattern uses the
// facility: the row then reads −u_j·y_j ≤ 0, which y_j ≥ 0 implies. Commit
// opens a facility's row with the first pattern over it. Pattern Idx name
// facilities; row[j] is facility j's LP row, −1 while it is closed.
type rowPatternPricer struct {
	pats []Column
	caps []float64
	row  []int
	// overflow, when positive, gives every facility an overflow variable
	// o ≥ 0 of objective −overflow that buys capacity in its linking row.
	// Like the row, it is left out while the row is closed, where it could
	// only sit at 0, and opens as a companion column with the row.
	overflow float64
}

// deferredRowsProblem is colGenProblem's restricted master with only the
// first facility's linking row, and its RowPricer.
func deferredRowsProblem(seed int64, nFac, nPat int) (*Problem, *rowPatternPricer) {
	restricted, lazy := colGenProblem(seed, nFac, nPat, false)
	p := lp.NewProblem()
	p.Sense = restricted.LP.Sense
	rp := &rowPatternPricer{pats: lazy, caps: make([]float64, nFac), row: make([]int, nFac)}
	for j := 0; j < nFac; j++ {
		p.AddCol(restricted.LP.Obj[j], restricted.LP.ColLB[j], restricted.LP.ColUB[j])
		_, val := restricted.LP.Row(j)
		rp.caps[j] = -val[0]
	}
	p.AddLE([]int32{0}, []float64{-rp.caps[0]}, 0)
	return &Problem{LP: p, Integer: allInteger(nFac)}, rp
}

// column is pattern q over the open linking rows.
func (rp *rowPatternPricer) column(q int) Column {
	c := rp.pats[q]
	out := Column{LB: c.LB, UB: c.UB, Obj: c.Obj, Tag: q}
	for k, j := range c.Idx {
		if rp.row[j] >= 0 {
			out.Idx = append(out.Idx, int32(rp.row[j]))
			out.Val = append(out.Val, c.Val[k])
		}
	}
	return out
}

func (rp *rowPatternPricer) Price(duals, x []float64) []Column {
	var out []Column
	for q := range rp.pats {
		c := rp.column(q)
		if lp.CandidateReducedCost(c.Obj, c.Idx, c.Val, duals) > numtol.PriceRedTol {
			out = append(out, c)
		}
	}
	return out
}

func (rp *rowPatternPricer) Reset() {
	for j := range rp.row {
		rp.row[j] = -1
	}
	rp.row[0] = 0
}

func (rp *rowPatternPricer) Commit(c Column, j, m int) (Column, []Column, []Cut) {
	q := c.Tag.(int)
	out := rp.column(q)
	var cols []Column
	var rows []Cut
	pat := rp.pats[q]
	for k, f := range pat.Idx {
		if rp.row[f] < 0 {
			rp.row[f] = m + len(rows)
			row := Cut{Idx: []int32{f, int32(j)}, Val: []float64{-rp.caps[f], pat.Val[k]}, LB: math.Inf(-1), UB: 0}
			if rp.overflow > 0 {
				row.Idx = append(row.Idx, int32(j+1+len(cols)))
				row.Val = append(row.Val, -1)
				cols = append(cols, Column{LB: 0, UB: math.Inf(1), Obj: -rp.overflow})
			}
			rows = append(rows, row)
		}
	}
	return out, cols, rows
}

// TestRowPricerMatchesStaticSolve: a RowPricer whose columns open the rows
// the restricted master leaves out reaches the optimum of the full static
// formulation, records its companion rows with their columns at the LP rows
// they took, appends no column twice, and repeats itself bit for bit on a
// second search over the same problem (Reset closes what the first
// opened).
func TestRowPricerMatchesStaticSolve(t *testing.T) {
	for _, sh := range []struct {
		seed       int64
		nFac, nPat int
	}{{3, 4, 12}, {7, 5, 20}, {11, 6, 30}, {23, 8, 40}} {
		full, _ := colGenProblem(sh.seed, sh.nFac, sh.nPat, true)
		want := Solve(context.Background(), full, nil)
		prob, rp := deferredRowsProblem(sh.seed, sh.nFac, sh.nPat)
		opts := &Options{Pricers: []Pricer{rp}}
		got := Solve(context.Background(), prob, opts)
		if got.Status != StatusOptimal || want.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v, static %v", sh.seed, got.Status, want.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: obj %v differs from static %v", sh.seed, got.Obj, want.Obj)
		}
		if got.Columns.CompanionRows == 0 {
			t.Errorf("seed %d: no column opened a row; the shape no longer exercises companion rows", sh.seed)
		}
		// Every facility row is opened once, right after its first column,
		// at the LP row the next row index names, and no pattern is
		// appended twice (a re-offer after its rows opened is a pool hit).
		next, opened := prob.LP.NumRows(), 0
		seen := make(map[int]bool)
		for k, c := range got.AppliedColumns {
			q := c.Tag.(int)
			if seen[q] {
				t.Fatalf("seed %d: pattern %d appended twice", sh.seed, q)
			}
			seen[q] = true
			if len(c.Rows) == 0 {
				continue
			}
			if c.Row != next {
				t.Fatalf("seed %d: column %d's rows start at %d, want %d", sh.seed, k, c.Row, next)
			}
			for _, row := range c.Rows {
				if row.Idx[1] != int32(got.Columns.ColsAtRoot+k) {
					t.Fatalf("seed %d: companion row of column %d covers column %d", sh.seed, k, row.Idx[1])
				}
			}
			next += len(c.Rows)
			opened += len(c.Rows)
		}
		if opened != got.Columns.CompanionRows || opened > sh.nFac-1 {
			t.Errorf("seed %d: %d rows recorded, %d counted, %d facilities", sh.seed, opened, got.Columns.CompanionRows, sh.nFac)
		}
		assertBitIdentical(t, "re-solve", got, Solve(context.Background(), prob, opts))
	}
}

// withOverflow copies colGenProblem's problem p, whose rows are the nFac
// linking rows, and gives the facilities in open an overflow column of
// objective −pen on their linking rows.
func withOverflow(p *Problem, nFac int, open []int, pen float64) *Problem {
	q := lp.NewProblem()
	q.Sense = p.LP.Sense
	for j := range p.LP.Obj {
		q.AddCol(p.LP.Obj[j], p.LP.ColLB[j], p.LP.ColUB[j])
	}
	over := make(map[int]int32)
	for _, f := range open {
		over[f] = int32(q.AddCol(-pen, 0, math.Inf(1)))
	}
	for i := 0; i < p.LP.NumRows(); i++ {
		idx, val := p.LP.Row(i)
		idx, val = append([]int32(nil), idx...), append([]float64(nil), val...)
		f := int(idx[0]) // the facility column leads its linking row
		if o, ok := over[f]; ok {
			idx, val = append(idx, o), append(val, -1)
		}
		q.AddLE(idx, val, 0)
	}
	return &Problem{LP: q, Integer: allInteger(nFac)}
}

// TestRowPricerCompanionColumns: a RowPricer that opens a facility's
// overflow variable as a companion column with the facility's row reaches
// the optimum of the full static formulation. The companion columns are
// LP columns j+1, … right after their column j, each logged as its own
// AppliedColumns entry, and the rows opened with them carry −1 on them.
func TestRowPricerCompanionColumns(t *testing.T) {
	const pen = 1.5
	used := 0
	for _, sh := range []struct {
		seed       int64
		nFac, nPat int
	}{{3, 4, 12}, {7, 5, 20}, {11, 6, 30}, {23, 8, 40}} {
		full, _ := colGenProblem(sh.seed, sh.nFac, sh.nPat, true)
		all := make([]int, sh.nFac)
		for f := range all {
			all[f] = f
		}
		want := Solve(context.Background(), withOverflow(full, sh.nFac, all, pen), nil)
		prob, rp := deferredRowsProblem(sh.seed, sh.nFac, sh.nPat)
		prob = withOverflow(prob, sh.nFac, []int{0}, pen)
		rp.overflow = pen
		opts := &Options{Pricers: []Pricer{rp}}
		got := Solve(context.Background(), prob, opts)
		if got.Status != StatusOptimal || want.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v, static %v", sh.seed, got.Status, want.Status)
		}
		if d := math.Abs(got.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
			t.Errorf("seed %d: obj %v differs from static %v", sh.seed, got.Obj, want.Obj)
		}
		cs := got.Columns
		if cs.CompanionCols == 0 || cs.CompanionCols != cs.CompanionRows ||
			cs.PricedCols+cs.CompanionCols != len(got.AppliedColumns) {
			t.Fatalf("seed %d: %+v over %d applied columns", sh.seed, cs, len(got.AppliedColumns))
		}
		for k := 0; k < len(got.AppliedColumns); k++ {
			c := got.AppliedColumns[k]
			if _, ok := c.Tag.(int); !ok || c.Cols != len(c.Rows) {
				t.Fatalf("seed %d: entry %d is %v with %d companion columns for %d rows", sh.seed, k, c.Tag, c.Cols, len(c.Rows))
			}
			j := int32(cs.ColsAtRoot + k)
			for i, row := range c.Rows {
				if row.Idx[2] != j+1+int32(i) || row.Val[2] != -1 {
					t.Fatalf("seed %d: companion row %d of column %d has %v@%v, want −1 on column %d",
						sh.seed, i, k, row.Idx, row.Val, j+1+int32(i))
				}
			}
			for i, o := range got.AppliedColumns[k+1 : k+1+c.Cols] {
				if o.Tag != nil || len(o.Idx) != 0 || o.Obj != -pen || o.LB != 0 || !math.IsInf(o.UB, 1) {
					t.Fatalf("seed %d: companion column %d of column %d is %+v", sh.seed, i, k, o)
				}
				if jj := int(j) + 1 + i; jj < len(got.X) && got.X[jj] > 0 {
					used++
				}
			}
			k += c.Cols
		}
		assertBitIdentical(t, "re-solve", got, Solve(context.Background(), prob, opts))
	}
	if used == 0 {
		t.Error("no optimum buys overflow through a companion column; the shapes no longer exercise them")
	}
}

// TestRowPricerKeepsEqualOffersApart: two patterns over facility 0 and one
// closed facility each are offered with equal coefficients, facility 0's
// row alone, until their own rows open. Committing the first must not make
// the second a pool hit: each is appended in its own round, opening its own
// row, and the search reaches the optimum that uses both (profit 3 each,
// less opening costs 0.5·3).
func TestRowPricerKeepsEqualOffersApart(t *testing.T) {
	p := lp.NewProblem()
	p.Sense = lp.Maximize
	for j := 0; j < 3; j++ {
		p.AddCol(-0.5, 0, 1)
	}
	p.AddLE([]int32{0}, []float64{-2}, 0)
	rp := &rowPatternPricer{
		pats: []Column{
			{Idx: []int32{0, 1}, Val: []float64{1, 1}, UB: 1, Obj: 3},
			{Idx: []int32{0, 2}, Val: []float64{1, 1}, UB: 1, Obj: 3},
		},
		caps: []float64{2, 1, 1},
		row:  make([]int, 3),
	}
	got := Solve(context.Background(), &Problem{LP: p, Integer: allInteger(3)}, &Options{Pricers: []Pricer{rp}})
	if got.Status != StatusOptimal || math.Abs(got.Obj-4.5) > 1e-9 {
		t.Fatalf("status %v obj %v, want optimal 4.5", got.Status, got.Obj)
	}
	if len(got.AppliedColumns) != 2 || got.Columns.Rounds != 2 {
		t.Fatalf("%d columns appended in %d rounds, want 2 in 2", len(got.AppliedColumns), got.Columns.Rounds)
	}
	for k, c := range got.AppliedColumns {
		if c.Tag.(int) != k || len(c.Rows) != 1 {
			t.Fatalf("column %d is pattern %v with %d companion rows, want pattern %d with 1", k, c.Tag, len(c.Rows), k)
		}
	}
}
