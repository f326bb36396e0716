package mip

// The incremental pool and op log shared by lazy separation (cuts.go) and
// column generation (price.go). Both grow the LP during the search: cut rows
// over the current columns, priced columns over the current rows. Offered
// ops are kept in a deterministic pool per kind (deduplicated by an exact
// canonical key), the best-scoring batch of a round is appended to the
// search's instance, and every appended op goes to one append-only log in
// commit order, which Result.AppliedCuts and AppliedColumns are read from. A
// cut may reference any column — and a column any row — that existed when
// it was committed.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"tvnep/internal/lp"
)

const (
	// cutBatch is the maximum number of cuts appended per ordinary
	// separation round, taken in decreasing violation order.
	cutBatch = 32
	// poolMaxAge evicts a pooled-but-never-appended op after this many
	// rounds of its pool without a hit (a violation for cuts, an improving
	// reduced cost for columns).
	poolMaxAge = 8
	// maxPriceRounds caps the pricing rounds per node. It is a safety net
	// against a non-converging Pricer, not a budget: hitting it leaves the
	// node with a possibly-invalid bound.
	maxPriceRounds = 200
)

// op is one incremental change to the LP relaxation in canonical form: a cut
// row LB ≤ Σ val·x[idx] ≤ UB over columns, or (col set) a priced column
// with coefficients val over rows idx, bounds [LB, UB] and objective obj,
// followed by the companion columns and rows its RowPricer opened with it.
type op struct {
	idx    []int32
	val    []float64
	lb, ub float64
	obj    float64 // columns only
	col    bool
	tag    interface{} // columns only
	rp     RowPricer   // columns of a RowPricer only
	cols   []op        // companion columns, set when the column is committed
	rows   []Cut       // companion rows, set when the column is committed
	row    int         // LP index of rows[0]
}

func cutOp(c Cut) op { return op{idx: c.Idx, val: c.Val, lb: c.LB, ub: c.UB} }

func colOp(c Column) op {
	return op{idx: c.Idx, val: c.Val, lb: c.LB, ub: c.UB, obj: c.Obj, col: true, tag: c.Tag}
}

func (o *op) cut() Cut { return Cut{Idx: o.idx, Val: o.val, LB: o.lb, UB: o.ub} }

func (o *op) column() Column {
	return Column{Idx: o.idx, Val: o.val, LB: o.lb, UB: o.ub, Obj: o.obj, Tag: o.tag, Rows: o.rows, Row: o.row, Cols: len(o.cols)}
}

// apply appends the op to an instance: a column with its companion columns
// and then its companion rows right after it.
func (o *op) apply(inst *lp.Instance) {
	if !o.col {
		inst.AppendRow(o.idx, o.val, o.lb, o.ub)
		return
	}
	inst.AppendColumn(o.idx, o.val, o.lb, o.ub, o.obj)
	for _, c := range o.cols {
		inst.AppendColumn(c.idx, c.val, c.lb, c.ub, c.obj)
	}
	for _, c := range o.rows {
		inst.AppendRow(c.Idx, c.Val, c.LB, c.UB)
	}
}

// key returns the exact canonical key of an already-canonicalized op: the
// little-endian concatenation of (index, coefficient-bits) pairs plus the
// trailing bound bits — LB, UB for a cut and LB, UB, Obj for a column. Two
// ops of one kind share a key iff they are the same row or variable, so the
// pool's dedup can never be fooled by a hash collision.
func (o *op) key() string {
	buf := make([]byte, 0, 12*len(o.idx)+24)
	for k, j := range o.idx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(j))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.val[k]))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.lb))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.ub))
	if o.col {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.obj))
	}
	return string(buf)
}

// pooled is one pooled op plus its selection and eviction bookkeeping.
type pooled struct {
	op  op
	key string
	// seq is the deterministic insertion order, the final tie-break of the
	// score sort.
	seq int
	// added marks ops already appended to the LP; they stay pooled (so a
	// re-offer is a cheap pool hit) but are never selected or evicted again.
	added bool
	// lastHit is the round that last scored this op above its selection
	// floor (its insertion round initially); age-based eviction keys off it.
	lastHit int
	// score is scratch state: the score at the round's point.
	score float64
}

// pool is the search's store of offered ops of one kind. All
// operations are deterministic: iteration follows insertion order, selection
// sorts by (score desc, insertion seq asc), and the dedup key is exact.
type pool struct {
	byKey   map[string]*pooled
	entries []*pooled
	round   int // current round, advanced by endRound
	rounds  int // rounds that appended at least one op
	offered int
	hits    int
	evicted int
}

func newPool() *pool {
	return &pool{byKey: make(map[string]*pooled)}
}

// offer canonicalizes o and pools it unless an identical op is already
// present. limit is the size of the dimension o indexes on the search's
// instance — its current column count for a cut, row count for a column.
// Malformed ops panic here, naming the op kind and the bad index or bounds,
// rather than deep inside lp.AppendRow or lp.AppendColumn.
func (p *pool) offer(o op, limit int) {
	p.offered++
	what, dim := "separator cut", "column"
	if o.col {
		what, dim = "pricer column", "row"
	}
	if len(o.idx) != len(o.val) {
		panic(fmt.Sprintf("mip: %s index/value length mismatch: %d indices, %d values", what, len(o.idx), len(o.val)))
	}
	if o.lb > o.ub {
		panic(fmt.Sprintf("mip: %s bounds %v > %v", what, o.lb, o.ub))
	}
	o.idx, o.val = lp.Canonical(o.idx, o.val)
	if len(o.idx) == 0 {
		return // canonicalizes to nothing: no row to separate, no column to price
	}
	for _, j := range o.idx {
		if int(j) >= limit || j < 0 {
			panic(fmt.Sprintf("mip: %s references %s %d of %d", what, dim, j, limit))
		}
	}
	key := o.key()
	if _, dup := p.byKey[key]; dup {
		p.hits++
		return
	}
	pe := &pooled{op: o, key: key, seq: len(p.entries), lastHit: p.round}
	p.byKey[key] = pe
	p.entries = append(p.entries, pe)
}

// best returns the (at most) batch unapplied entries whose score exceeds
// floor, best first. Every such entry counts as a hit and has its age
// refreshed — including those beyond the batch, which stay pooled for the
// next round instead of aging out. (The root seed round lowers floor below
// zero but lifts the batch cap, so the near-active rows it admits are all
// appended; no unappended entry is ever refreshed without a real hit.)
func (p *pool) best(score func(*op) float64, floor float64, batch int) []*pooled {
	var cand []*pooled
	for _, pe := range p.entries {
		if pe.added {
			continue
		}
		pe.score = score(&pe.op)
		if pe.score > floor {
			pe.lastHit = p.round
			cand = append(cand, pe)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		//lint:allow floateq -- selection needs a strict deterministic total order, not a tolerance
		if cand[i].score != cand[j].score {
			return cand[i].score > cand[j].score
		}
		return cand[i].seq < cand[j].seq
	})
	if len(cand) > batch {
		cand = cand[:batch]
	}
	return cand
}

// endRound advances the round counter and evicts unapplied ops without a
// hit for more than poolMaxAge rounds. Applied ops are permanent: they are
// part of the LP now, and keeping them pooled keeps the dedup exact.
func (p *pool) endRound() {
	p.round++
	p.evict(func(pe *pooled) bool { return p.round-pe.lastHit > poolMaxAge })
}

// flush evicts every unapplied op.
func (p *pool) flush() { p.evict(func(*pooled) bool { return true }) }

// evict drops the unapplied ops old reports.
func (p *pool) evict(old func(*pooled) bool) {
	kept := p.entries[:0]
	for _, pe := range p.entries {
		if !pe.added && old(pe) {
			delete(p.byKey, pe.key)
			p.evicted++
			continue
		}
		kept = append(kept, pe)
	}
	for i := len(kept); i < len(p.entries); i++ {
		p.entries[i] = nil
	}
	p.entries = kept
}

// commit ends one round of p: it appends the selected batch to the search's
// instance, logs it, counts the round and ages the pool. It returns the
// number of ops appended. A batch that opened companion rows leaves no
// unapplied op pooled: each was priced without those rows, so its score is
// stale, and committing it could append a column the batch already did.
func (s *searcher) commit(p *pool, batch []*pooled) int {
	opened := false
	for _, pe := range batch {
		pe.added = true
		if pe.op.rp != nil {
			opened = p.complete(pe, s.inst) || opened
		}
		pe.op.apply(s.inst)
		s.log = append(s.log, pe.op)
		s.log = append(s.log, pe.op.cols...)
	}
	if len(batch) > 0 {
		p.rounds++
	}
	if opened {
		p.flush()
	}
	p.endRound()
	return len(batch)
}

// complete has a RowPricer column's pricer re-derive it over inst's current
// rows and supply the companion columns and rows it opens, and re-keys the
// entry by the column's final form — its coefficients on its own companion
// rows included, as Price offers it from now on — so a re-offer is a pool
// hit, not a second copy of the column. It reports whether the column
// opened rows.
func (p *pool) complete(pe *pooled, inst *lp.Instance) bool {
	o := &pe.op
	j, m := int32(inst.NumCols()), inst.NumRows()
	c, cols, rows := o.rp.Commit(o.column(), int(j), m)
	o.idx, o.val = lp.Canonical(c.Idx, c.Val)
	o.lb, o.ub, o.obj = c.LB, c.UB, c.Obj
	o.cols = make([]op, len(cols))
	for i, cc := range cols {
		cc.Idx, cc.Val = lp.Canonical(cc.Idx, cc.Val)
		o.cols[i] = colOp(cc)
	}
	o.rows, o.row = rows, m
	final := *o
	final.idx, final.val = append([]int32(nil), o.idx...), append([]float64(nil), o.val...)
	for i, row := range rows {
		for k, jj := range row.Idx {
			if jj == j {
				final.idx, final.val = append(final.idx, int32(m+i)), append(final.val, row.Val[k])
			}
		}
	}
	final.idx, final.val = lp.Canonical(final.idx, final.val)
	// The offer-time key goes: a different column of the pricer may be
	// offered with the same coefficients before its own rows open.
	delete(p.byKey, pe.key)
	pe.key = final.key()
	if _, dup := p.byKey[pe.key]; !dup {
		p.byKey[pe.key] = pe
	}
	return len(rows) > 0
}
