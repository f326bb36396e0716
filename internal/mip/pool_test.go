package mip

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

// TestPool runs the pool's dedup, selection, eviction and validation
// contract once per kind: cut rows scored by violation at a point, and
// columns scored by their sense-adjusted reduced cost at a dual point.
func TestPool(t *testing.T) {
	inf := math.Inf(-1)
	// Ops carry no names; the test names them by their canonical pool key
	// (the first name given to a key wins) so selections read as names.
	labels := map[string]string{}
	nameOf := func(o op) string {
		o.idx, o.val = lp.Canonical(o.idx, o.val)
		return labels[o.key()]
	}
	named := func(name string, o op) op {
		c := o
		c.idx, c.val = lp.Canonical(c.idx, c.val)
		if _, ok := labels[c.key()]; !ok {
			labels[c.key()] = name
		}
		return o
	}
	cut := func(name string, idx []int32, val []float64, ub float64) op {
		return named(name, cutOp(Cut{Idx: idx, Val: val, LB: inf, UB: ub}))
	}
	col := func(name string, idx []int32, val []float64, obj float64) op {
		return named(name, colOp(Column{Idx: idx, Val: val, UB: 1, Obj: obj}))
	}
	x := []float64{1, 1, 0, 0}
	viol := func(o *op) float64 { return rowViolation(o.cut(), x) }
	// Reduced cost obj − yᵀa: duals zero on rows 0,1 and large on row 3.
	duals := []float64{0, 0, 0, 5}
	redCost := func(minimize bool) func(*op) float64 {
		return func(o *op) float64 {
			d := lp.CandidateReducedCost(o.obj, o.idx, o.val, duals)
			if minimize {
				d = -d
			}
			return d
		}
	}

	testdata := []struct {
		kind  string
		limit int // size of the indexed dimension
		// same is one op offered three ways (permuted, split duplicate
		// entries): it must pool exactly once.
		same [3]op
		// empty canonicalizes to nothing and must not be pooled.
		empty op
		// more are further distinct ops, pooled in order.
		more  []op
		score func(*op) float64
		tol   float64
		// want is the selection order at score; want[0] is marked added
		// next, then want[1].
		want []string
		// flip, when set, is a second score under which only flipWant
		// selects.
		flip     func(*op) float64
		flipWant string
		// stale never scores a hit, so it ages out once the rest are added.
		stale op
		// bad ops must panic on offer with the given message fragment.
		bad []struct {
			name string
			op   op
			msg  string
		}
	}{
		{
			kind:  "cut",
			limit: 4,
			same: [3]op{
				cut("a", []int32{0, 1}, []float64{1, 1}, 1),
				cut("a-permuted", []int32{1, 0}, []float64{1, 1}, 1),
				cut("a-split", []int32{0, 1, 1}, []float64{1, 2, -1}, 1),
			},
			empty: cut("empty", []int32{2, 2}, []float64{1, -1}, 0),
			more: []op{
				// A satisfied row is pooled but never selected.
				cut("slack", []int32{2}, []float64{1}, 5),
				// A more violated row must sort first.
				cut("big", []int32{0}, []float64{3}, 1),
			},
			score: viol,
			tol:   numtol.CutViolTol,
			want:  []string{"big", "a"},
			stale: cut("slack", []int32{2}, []float64{1}, 5),
			bad: []struct {
				name string
				op   op
				msg  string
			}{
				{"out-of-range", cutOp(Cut{Idx: []int32{5}, Val: []float64{1}, LB: inf, UB: 1}), "separator cut references column 5 of 4"},
				{"length-mismatch", cutOp(Cut{Idx: []int32{0}, Val: []float64{1, 2}, LB: inf, UB: 1}), "separator cut index/value length mismatch: 1 indices, 2 values"},
				{"inverted-bounds", cutOp(Cut{Idx: []int32{0}, Val: []float64{1}, LB: 2, UB: 1}), "separator cut bounds 2 > 1"},
			},
		},
		{
			kind:  "column",
			limit: 4,
			same: [3]op{
				col("a", []int32{0, 1}, []float64{1, 2}, 5),
				col("a-permuted", []int32{1, 0}, []float64{2, 1}, 5),
				col("a-split", []int32{0, 1, 1}, []float64{1, 3, -1}, 5),
			},
			empty: col("empty", []int32{2, 2}, []float64{1, -1}, 1),
			more: []op{
				// Same coefficients but a different objective is a
				// different variable.
				col("b", []int32{0, 1}, []float64{1, 2}, 7),
				// A column that does not price in at the duals is pooled
				// but never selected.
				col("dull", []int32{3}, []float64{10}, 1),
			},
			// Maximization sense: "b" (7) beats "a" (5), "dull" prices out.
			score: redCost(false),
			tol:   numtol.PriceRedTol,
			want:  []string{"b", "a"},
			// Minimization sense flips the test: obj 5 now needs yᵀa > 5.
			flip:     redCost(true),
			flipWant: "dull",
			stale:    col("dull", []int32{3}, []float64{10}, 1),
			bad: []struct {
				name string
				op   op
				msg  string
			}{
				{"out-of-range", colOp(Column{Idx: []int32{5}, Val: []float64{1}, UB: 1, Obj: 1}), "pricer column references row 5 of 4"},
				{"length-mismatch", colOp(Column{Idx: []int32{0}, Val: []float64{1, 2}, UB: 1, Obj: 1}), "pricer column index/value length mismatch: 1 indices, 2 values"},
				{"inverted-bounds", colOp(Column{Idx: []int32{0}, Val: []float64{1}, LB: 2, UB: 1}), "pricer column bounds 2 > 1"},
			},
		},
	}

	for _, tc := range testdata {
		t.Run(tc.kind, func(t *testing.T) {
			p := newPool()
			for _, o := range tc.same {
				p.offer(o, tc.limit)
			}
			if len(p.entries) != 1 || p.hits != 2 || p.offered != 3 {
				t.Fatalf("dedup: %d entries, %d hits, %d offered", len(p.entries), p.hits, p.offered)
			}
			p.offer(tc.empty, tc.limit)
			if len(p.entries) != 1 {
				t.Fatalf("empty %s was pooled", tc.kind)
			}
			for _, o := range tc.more {
				p.offer(o, tc.limit)
			}
			if len(p.entries) != 3 {
				t.Fatalf("pool size %d, want 3", len(p.entries))
			}

			names := func(sel []*pooled) []string {
				var out []string
				for _, pe := range sel {
					out = append(out, nameOf(pe.op))
				}
				return out
			}
			sel := p.best(tc.score, tc.tol, 10)
			if got := names(sel); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("selection order %v, want %v", got, tc.want)
			}
			if got := names(p.best(tc.score, tc.tol, 1)); !reflect.DeepEqual(got, tc.want[:1]) {
				t.Fatalf("batch limit not honored: %v", got)
			}
			sel[0].added = true
			if got := names(p.best(tc.score, tc.tol, 10)); !reflect.DeepEqual(got, tc.want[1:]) {
				t.Fatalf("added %s re-selected: %v", tc.kind, got)
			}
			if tc.flip != nil {
				if got := names(p.best(tc.flip, tc.tol, 10)); !reflect.DeepEqual(got, []string{tc.flipWant}) {
					t.Fatalf("flipped selection %v, want [%s]", got, tc.flipWant)
				}
			}

			// Aging: with both selected ops added, the stale one never hits
			// again; after poolMaxAge+1 rounds it must be evicted, while the
			// added ones stay (they are part of the LP now).
			sel[1].added = true
			for r := 0; r <= poolMaxAge; r++ {
				p.best(tc.score, tc.tol, 10)
				p.endRound()
			}
			left := map[string]bool{}
			for _, pe := range p.entries {
				left[nameOf(pe.op)] = true
			}
			if left[nameOf(tc.stale)] || !left[tc.want[0]] || !left[tc.want[1]] || p.evicted != 1 {
				t.Fatalf("eviction wrong: entries %v, evicted %d", left, p.evicted)
			}
			// An evicted op may be offered (and therefore appended) again.
			p.offer(tc.stale, tc.limit)
			if len(p.entries) != 3 {
				t.Fatalf("re-offer after eviction did not pool")
			}

			for _, bad := range tc.bad {
				t.Run(bad.name, func(t *testing.T) {
					defer func() {
						r := recover()
						if r == nil {
							t.Fatalf("malformed %s did not panic", tc.kind)
						}
						if msg := fmt.Sprint(r); !strings.Contains(msg, bad.msg) {
							t.Fatalf("panic %q does not mention %q", msg, bad.msg)
						}
					}()
					newPool().offer(bad.op, tc.limit)
				})
			}
		})
	}
}

// opFingerprint hashes the exact pool keys of applied ops in order.
func opFingerprint(ops []op) uint64 {
	h := fnv.New64a()
	for k := range ops {
		h.Write([]byte(ops[k].key()))
	}
	return h.Sum64()
}

// TestPoolTrajectoryGolden pins the full committed trajectory of solves that
// drive the pools — the objective, node and LP-iteration counts, every
// CutStats/ColumnStats field, and the applied ops in order (priced columns by
// their pattern tag, and all ops by a fingerprint of their exact pool keys) —
// to values recorded before the cut and column pools were merged (the
// keys-only fingerprints on the same trajectory, before op names were
// dropped). Any change to canonicalization, keys, selection order, eviction
// or op application shows up here.
func TestPoolTrajectoryGolden(t *testing.T) {
	tagged := func(seed int64, nFac, nPat, batch int, cuts bool) (*Problem, *Options) {
		prob, lazy := colGenProblem(seed, nFac, nPat, false)
		for q := range lazy {
			lazy[q].Tag = q
		}
		o := &Options{Pricers: []Pricer{&patternPricer{cols: lazy}}, PriceBatch: batch}
		if cuts {
			o.Separators = []Separator{&coverSeparator{prob: prob}}
		}
		return prob, o
	}
	deep := multiKnapsack(7, 28, 8)
	cases := []struct {
		name     string
		build    func() (*Problem, *Options)
		obj      float64
		nodes    int
		iters    int
		cuts     CutStats
		cols     ColumnStats
		colNames []string // nil: only the fingerprint is pinned
		cutFP    uint64
		colFP    uint64
	}{
		{
			// The pricing+cuts shape of TestParallelDeterminismWithPricing.
			name:  "pricing+cuts",
			build: func() (*Problem, *Options) { return tagged(11, 6, 30, 0, true) },
			obj:   39.08312023721864, nodes: 7, iters: 47,
			cuts: CutStats{RowsAtRoot: 6},
			cols: ColumnStats{ColsAtRoot: 6, PricedCols: 30, Rounds: 1, Offered: 63, PoolHits: 33},
			colNames: []string{
				"pat7", "pat12", "pat23", "pat10", "pat9", "pat5", "pat8", "pat19", "pat28", "pat13",
				"pat0", "pat14", "pat4", "pat16", "pat26", "pat29", "pat11", "pat18", "pat6", "pat17",
				"pat27", "pat1", "pat25", "pat15", "pat2", "pat22", "pat20", "pat24", "pat21", "pat3",
			},
			cutFP: 0xcbf29ce484222325, // empty
			colFP: 0x5811c7e5cec2998c,
		},
		{
			// Many small pricing rounds, with column evictions.
			name:  "pricing-batch3",
			build: func() (*Problem, *Options) { return tagged(23, 8, 40, 3, false) },
			obj:   71.21962998151515, nodes: 5, iters: 66,
			cuts:  CutStats{RowsAtRoot: 8},
			cols:  ColumnStats{ColsAtRoot: 8, PricedCols: 24, Rounds: 10, Offered: 266, PoolHits: 226, Evicted: 16},
			cutFP: 0xcbf29ce484222325,
			colFP: 0x633b07eeffa5c80,
		},
		{
			// Deep cut separation through the tree.
			name: "cuts-deep",
			build: func() (*Problem, *Options) {
				return deep, &Options{Separators: []Separator{&coverSeparator{prob: deep}}}
			},
			obj: 73.40487757813818, nodes: 89, iters: 985,
			cuts:  CutStats{RowsAtRoot: 8, SeparatedRows: 118, Rounds: 112, Offered: 427, PoolHits: 309},
			cols:  ColumnStats{ColsAtRoot: 28},
			cutFP: 0xe6d843dad70c8ff5,
			colFP: 0xcbf29ce484222325,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, o := tc.build()
			res := Solve(context.Background(), prob, o)
			if res.Status != StatusOptimal {
				t.Fatalf("status %v", res.Status)
			}
			if res.Obj != tc.obj || res.Nodes != tc.nodes || res.LPIterations != tc.iters {
				t.Errorf("obj %v nodes %d iters %d, want %v %d %d",
					res.Obj, res.Nodes, res.LPIterations, tc.obj, tc.nodes, tc.iters)
			}
			if res.Cuts != tc.cuts {
				t.Errorf("cut stats %+v, want %+v", res.Cuts, tc.cuts)
			}
			if res.Columns != tc.cols {
				t.Errorf("column stats %+v, want %+v", res.Columns, tc.cols)
			}
			var cuts, cols []op
			var colNames []string
			for _, c := range res.AppliedCuts {
				cuts = append(cuts, cutOp(c))
			}
			for _, c := range res.AppliedColumns {
				cols = append(cols, colOp(c))
				colNames = append(colNames, fmt.Sprintf("pat%d", c.Tag))
			}
			if tc.colNames != nil && !reflect.DeepEqual(colNames, tc.colNames) {
				t.Errorf("applied columns %v, want %v", colNames, tc.colNames)
			}
			if fp := opFingerprint(cuts); fp != tc.cutFP {
				t.Errorf("applied-cut fingerprint %#x, want %#x", fp, tc.cutFP)
			}
			if fp := opFingerprint(cols); fp != tc.colFP {
				t.Errorf("applied-column fingerprint %#x, want %#x", fp, tc.colFP)
			}
		})
	}
}

// onePatternPricer offers, per pricing round, the single best-priced lazy
// pattern it has not offered before. Its patterns are canonical, so the pool
// scores them bit for bit as the pricer does and appends each offer in the
// same round: the k-th priced LP column is pattern order[k]. It is stateful
// rather than a pure function of the duals, which is deterministic here
// because the search calls it once per pricing round, in order.
type onePatternPricer struct {
	cols  []Column
	done  []bool
	order []int
}

func newOnePatternPricer(lazy []Column) *onePatternPricer {
	pp := &onePatternPricer{done: make([]bool, len(lazy))}
	for _, c := range lazy {
		c.Idx, c.Val = lp.Canonical(c.Idx, c.Val)
		pp.cols = append(pp.cols, c)
	}
	return pp
}

func (pp *onePatternPricer) Price(duals, x []float64) []Column {
	best, bestD := -1, numtol.PriceRedTol
	for q, c := range pp.cols {
		if pp.done[q] {
			continue
		}
		// colGenProblem maximizes: improving reduced costs are positive.
		if d := lp.CandidateReducedCost(c.Obj, c.Idx, c.Val, duals); d > bestD {
			best, bestD = q, d
		}
	}
	if best < 0 {
		return nil
	}
	pp.done[best] = true
	pp.order = append(pp.order, best)
	return []Column{pp.cols[best]}
}

// vubSeparator returns, for every priced pattern column λ_p and every
// facility f it draws on, the variable-upper-bound cut λ_p − UB_p·y_f ≤ 0.
// It is valid for every integral solution: the linking row closes λ_p when
// y_f = 0, and λ_p ≤ UB_p when y_f = 1. Every cut references a priced
// column, one that did not exist in the root LP.
type vubSeparator struct {
	nFac   int
	pricer *onePatternPricer
}

func (vs *vubSeparator) Separate(x []float64) []Cut {
	var cuts []Cut
	for k, q := range vs.pricer.order[:len(x)-vs.nFac] {
		c := vs.pricer.cols[q]
		for _, f := range c.Idx {
			cuts = append(cuts, Cut{
				Idx: []int32{int32(vs.nFac + k), f}, Val: []float64{1, -c.UB},
				LB: math.Inf(-1), UB: 0,
			})
		}
	}
	return cuts
}

// TestCutsOverPricedColumns: a separator may cut over columns that pricing
// appended during the search. The pool must range-check such cuts against
// the search's current column count (not the root's), and the result must
// match the static formulation's optimum.
func TestCutsOverPricedColumns(t *testing.T) {
	const seed, nFac, nPat = 11, 6, 30
	full, _ := colGenProblem(seed, nFac, nPat, true)
	want := Solve(context.Background(), full, nil)
	if want.Status != StatusOptimal {
		t.Fatalf("full status %v", want.Status)
	}
	prob, lazy := colGenProblem(seed, nFac, nPat, false)
	pp := newOnePatternPricer(lazy)
	res := Solve(context.Background(), prob, &Options{
		Pricers:    []Pricer{pp},
		Separators: []Separator{&vubSeparator{nFac: nFac, pricer: pp}},
	})
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if d := math.Abs(res.Obj - want.Obj); d > 1e-6*(1+math.Abs(want.Obj)) {
		t.Errorf("obj %v differs from static %v", res.Obj, want.Obj)
	}
	if res.Cuts.SeparatedRows == 0 {
		t.Fatal("no cut over a priced column was applied; the case no longer exercises the path")
	}
	// The incumbent satisfies every applied cut; columns appended after it
	// was found are zero in it.
	x := make([]float64, res.Columns.ColsAtRoot+res.Columns.PricedCols)
	copy(x, res.X)
	for k, c := range res.AppliedCuts {
		if c.Idx[1] < int32(res.Columns.ColsAtRoot) {
			t.Errorf("cut %d references no priced column: %v", k, c.Idx)
		}
		if v := rowViolation(c, x); v > 1e-6 {
			t.Errorf("incumbent violates applied cut %d by %v", k, v)
		}
	}
}
