// Package mip implements a mixed-integer programming solver: LP-relaxation
// based branch-and-bound with best-first node selection, warm-started
// dual-simplex re-solves, a rounding primal heuristic and time/node/gap
// limits. It plays the role Gurobi plays in the paper's evaluation.
package mip

import (
	"container/heap"
	"context"
	"math"
	"time"

	"tvnep/internal/linalg/sparselu"
	"tvnep/internal/lp"
	"tvnep/internal/numtol"
)

const (
	// boundCutoffTol is the margin by which a node's relaxation bound (or
	// a candidate incumbent) must beat the incumbent to stay interesting;
	// it absorbs LP-level noise in the bound values.
	boundCutoffTol = 1e-9
	// gapDenFloor keeps the relative-gap denominator away from zero for
	// near-zero objectives.
	gapDenFloor = 1e-10
	// branchObjWeight is the tiny weight mixing objective magnitude into
	// the fractionality branching score as a deterministic tie-break.
	branchObjWeight = 1e-6
	// maxDivePasses bounds the fix-and-dive heuristic: each pass fixes one
	// integer column and pays one warm LP solve, so the cap is also the
	// heuristic's per-invocation LP budget.
	maxDivePasses = 200
	// rootCutRounds bounds the separation rounds at the root node and
	// treeCutRounds those at every other node. The root is where cuts pay
	// off most, so it gets a much deeper budget than tree nodes.
	rootCutRounds = 20
	treeCutRounds = 2
	// heuristicEvery runs the rounding heuristic at the root and at every
	// k-th node thereafter.
	heuristicEvery = 50
	// progressEvery is the interval, in nodes, of the periodic progress
	// callback.
	progressEvery = 100
	// priceBatch is the maximum number of columns appended per pricing
	// round, taken in decreasing reduced-cost order.
	priceBatch = 32
)

// Problem couples an LP with integrality markers.
type Problem struct {
	LP *lp.Problem
	// Integer[j] marks column j integral; columns past its end are
	// continuous. The search only reads it.
	Integer []bool
}

// Status is the outcome of a solve, the one vocabulary every layer above
// the search reports in.
type Status int

const (
	// StatusOptimal means the incumbent is proven optimal within
	// numtol.MIPGapTol.
	StatusOptimal Status = iota
	// StatusFeasible means a limit stopped the search after an integral
	// solution was found but before optimality was proven.
	StatusFeasible
	// StatusInfeasible means no integral solution exists.
	StatusInfeasible
	// StatusUnbounded means the relaxation (and thus the MIP, if feasible)
	// is unbounded.
	StatusUnbounded
	// StatusTimeLimit means a time, node or iteration limit stopped the
	// search before any integral solution was found.
	StatusTimeLimit
	// StatusCancelled means the solve's context was cancelled before the
	// search concluded; an incumbent may or may not exist.
	StatusCancelled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusTimeLimit:
		return "time-limit"
	case StatusCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Progress is a snapshot of the branch-and-bound search handed to the
// Options.Progress callback. Incumbent and Bound are expressed in the
// problem's original optimization sense; Incumbent is NaN while no integral
// solution exists. Callbacks run on the goroutine that called Solve.
type Progress struct {
	Work
	Open      int // open (unexplored) nodes
	Incumbent float64
	Bound     float64
	Gap       float64
	Elapsed   time.Duration
	// NewIncumbent marks callbacks fired because a better integral solution
	// was just found (otherwise the callback is periodic).
	NewIncumbent bool
}

// Options tunes the branch-and-bound search. It is the lowering target of
// model.SolveOptions: external callers configure solves through the
// pkg/tvnep facade's functional options, which lower onto this struct in
// exactly one place (model.OptimizeFrom, which Optimize calls).
type Options struct {
	TimeLimit time.Duration // 0 → none
	NodeLimit int           // 0 → none
	// Progress, when non-nil, is invoked on every new incumbent and every
	// progressEvery nodes. Callbacks run synchronously inside the search;
	// keep them cheap.
	Progress func(Progress)
	// Separators generate valid inequalities lazily instead of having the
	// model emit them all up front; see the Separator contract in cuts.go.
	Separators []Separator
	// Pricers generate structural columns lazily instead of having the model
	// emit them all up front; see the Pricer contract in price.go. Unlike
	// separation, pricing runs to convergence at every node, since a
	// restricted relaxation's value is only a valid node bound once no
	// column prices in.
	Pricers []Pricer
}

// Result reports the outcome of a solve. Obj, Bound and Gap are expressed in
// the problem's original optimization sense.
type Result struct {
	Status      Status
	HasSolution bool
	Obj         float64   // incumbent objective (valid if HasSolution)
	Bound       float64   // best proven bound on the optimum
	Gap         float64   // relative gap; +Inf when no incumbent exists
	X           []float64 // incumbent solution
	// Work counts the search's nodes and the LP work of its node
	// relaxations and heuristics.
	Work
	Runtime time.Duration
	// Cuts summarizes lazy separation (zero-valued apart from RowsAtRoot
	// when no separators were registered). All of its fields are
	// deterministic.
	Cuts CutStats
	// AppliedCuts lists, in append order, every cut row the search added to
	// the LP relaxation, so callers can re-validate them independently
	// (internal/certify checks each against the dependency graph).
	AppliedCuts []Cut
	// Columns summarizes column generation (zero-valued apart from
	// ColsAtRoot when no pricers were registered). All of its fields are
	// deterministic.
	Columns ColumnStats
	// AppliedColumns lists, in append order, every column pricing added to
	// the LP relaxation, with its companion rows, and each companion column
	// as its own entry right after the column that opened it: the k-th
	// entry is LP column ColsAtRoot+k, so callers can map incumbent values
	// back to pricer payloads (Column.Tag) and re-validate each column and
	// its companions independently. Note that X may be shorter than
	// ColsAtRoot+len(AppliedColumns): an incumbent found before later
	// pricing rounds simply does not use the columns appended after it.
	AppliedColumns []Column
	// Root is the root node's first relaxation, over the problem's own rows
	// and columns before any cut or priced column was appended. It is the
	// bound the search started from, kept so callers can certify it; Basis
	// and Factors are nil. It is zero-valued when the search stopped before
	// solving the root. The search never recycles its X and Duals: a caller
	// of SolveFrom may hand them back to the instance (lp.Instance.Reuse)
	// once done with them.
	Root lp.Result
}

// Work counts the deterministic work of a solve: branch-and-bound nodes,
// simplex iterations, and the long-step dual ratio test's bound flips and
// breakpoint passes (see lp.Result). The search fills it, and every result
// above the search embeds it and sums it with Add, so this type alone
// decides which counters a solve reports.
type Work struct {
	Nodes        int
	LPIterations int
	BoundFlips   int
	RatioPasses  int
}

// Add adds o's counts to w.
func (w *Work) Add(o Work) {
	w.Nodes += o.Nodes
	w.LPIterations += o.LPIterations
	w.BoundFlips += o.BoundFlips
	w.RatioPasses += o.RatioPasses
}

// LPWork is the work of one LP solve.
func LPWork(r *lp.Result) Work {
	return Work{LPIterations: r.Iterations, BoundFlips: r.BoundFlips, RatioPasses: r.RatioPasses}
}

// LPResult reports one LP solve of a problem's relaxation as a Result: the
// LP's outcome and work, and its optimum, integral or not, as the solution.
func LPResult(rel lp.Result) Result {
	res := Result{Work: LPWork(&rel)}
	res.relaxation(&rel, false)
	return res
}

// relaxation reports rel, a relaxation solved to its end or stopped, as
// the result's outcome: an optimal rel is the solution and its own bound.
func (r *Result) relaxation(rel *lp.Result, cancelled bool) {
	switch {
	case rel.Status == lp.StatusOptimal:
		r.Status, r.HasSolution, r.X = StatusOptimal, true, rel.X
		r.Obj, r.Bound = rel.Obj, rel.Obj
		return
	case rel.Status == lp.StatusInfeasible:
		r.Status = StatusInfeasible
	case rel.Status == lp.StatusUnbounded:
		r.Status = StatusUnbounded
	case cancelled:
		r.Status = StatusCancelled
	default:
		r.Status = StatusTimeLimit
	}
	r.Gap = math.Inf(1)
}

// node is a branch-and-bound node: a chain of bound overrides on top of the
// root relaxation.
type node struct {
	parent *node
	col    int // branched column (-1 at root)
	lo, hi float64
	depth  int
	bound  float64 // parent LP bound (minimization sense)
	basis  *lp.Basis
	// fac is the captured LU factorization matching basis: the parent's
	// (shared read-only with the sibling through br) or, after a pricing or
	// cut round, the node's own. Every warm start copies it into its
	// solver. Carrying it explicitly (instead of relying on the instance's
	// factorization cache, which the heuristics' solves overwrite) keeps
	// each node's solve a pure function of the node.
	fac *sparselu.Factors
	// br is the branch the node was created in (nil at the root); it owns
	// the parent's factors (see factors.go).
	br *branch
	// seq is the creation sequence number, assigned when the node's branch
	// is committed; it is the final heap tie-break.
	seq int64
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	//lint:allow floateq -- heap ordering needs any consistent total order, not a tolerance
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth // plunge on ties
	}
	return h[i].seq < h[j].seq // strict deterministic total order
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

type searcher struct {
	prob     *Problem
	inst     *lp.Instance // every node relaxation and heuristic solve runs on it
	opts     Options
	minimize bool
	ctx      context.Context
	start    time.Time

	rootLB, rootUB []float64

	incumbent    []float64
	incumbentMin float64 // minimization-sense incumbent objective
	hasInc       bool

	open    nodeHeap
	work    Work
	nextSeq int64

	// Lazy-cut and pricing state (see pool.go). cuts is nil when no
	// separators are registered, cols when no pricers are; log is the
	// append-only list of cut rows and priced columns added to the LP, in
	// commit order.
	cuts *pool
	cols *pool
	log  []op
	ray  []float64 // Farkas ray buffer of infeasible nodes' pricing

	// root is the root node's first relaxation (Result.Root).
	root lp.Result
	// rootOnly marks a Relax search, which never branches, so no
	// relaxation's factors are captured for children.
	rootOnly bool

	// Recycled storage (see factors.go): the factor buffers' free list and
	// the dive heuristic's buffer.
	facs    []*sparselu.Factors
	diveFac *sparselu.Factors

	deadline    time.Time
	hasDL       bool
	dlCountdown int // nodes until the next wall-clock deadline check
}

// Solve runs branch and bound. Cancelling ctx stops the search
// cooperatively — within one branch-and-bound node, i.e. at worst one LP
// iteration-checkpoint interval — with StatusCancelled. A nil ctx is
// treated as context.Background().
//
//det:entry
func Solve(ctx context.Context, p *Problem, opts *Options) Result {
	return SolveFrom(ctx, p, opts, nil)
}

// SolveFrom is Solve on an instance the caller compiled from p's LP
// (lp.NewInstance or lp.Instance.Recompile) and has not solved since. The
// search takes inst over: it sets its column bounds and appends cut rows
// and priced columns to it, so the caller may only Recompile inst once the
// search returns. The search recycles its factor buffers, bases and
// solution vectors through inst (see factors.go), which keeps them for its
// next problem when the caller recompiles it. A nil inst is Solve: the
// search compiles its own.
//
//det:entry
func SolveFrom(ctx context.Context, p *Problem, opts *Options, inst *lp.Instance) Result {
	s := newSearcher(ctx, p, opts, inst)
	status := s.run()
	if status == StatusTimeLimit && s.hasInc {
		status = StatusFeasible
	}
	res := s.result()
	res.Status = status
	bound := s.globalBoundMin()
	if s.hasInc {
		res.HasSolution, res.X = true, s.incumbent
		res.Obj = s.fromMin(s.incumbentMin)
		res.Gap = relGap(s.incumbentMin, bound)
	} else {
		res.Gap = math.Inf(1)
	}
	res.Bound = s.fromMin(bound)
	if res.Status == StatusOptimal && s.hasInc {
		res.Gap = 0
		res.Bound = res.Obj
	}
	s.release()
	return res
}

// Relax is the root-only twin of SolveFrom: it solves the root node's
// relaxation on a fresh instance, pricing to convergence and separating
// the root's cut rounds, and neither branches nor runs a heuristic. Its X
// is the final relaxation over p's columns and the priced ones, owned by
// the caller; Obj and Bound are its value, which is a bound on the MIP
// once no column prices in. Work counts no node. Without pricers or
// separators it is one cold LP solve.
//
//det:entry
func Relax(ctx context.Context, p *Problem, opts *Options) Result {
	s := newSearcher(ctx, p, opts, nil)
	s.rootOnly = true
	nd := &node{col: -1} // the fresh instance carries the root box
	rel, _ := s.solveSeparated(nd)
	s.retire(nd, rel.Basis, rel.Factors)
	res := s.result()
	res.relaxation(&rel, s.cancelled())
	s.release()
	return res
}

// newSearcher prepares a search of p on inst (compiled from p.LP when nil).
func newSearcher(ctx context.Context, p *Problem, opts *Options, inst *lp.Instance) *searcher {
	start := time.Now() //lint:allow nondet -- wall-clock Runtime stat only
	if ctx == nil {
		ctx = context.Background()
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	if inst == nil {
		inst = lp.NewInstance(p.LP)
	}
	s := &searcher{
		prob:         p,
		inst:         inst,
		opts:         o,
		minimize:     p.LP.Sense == lp.Minimize,
		ctx:          ctx,
		start:        start,
		incumbentMin: math.Inf(1),
	}
	n := p.LP.NumCols()
	if len(o.Separators) > 0 {
		s.cuts = newPool()
	}
	if len(o.Pricers) > 0 {
		s.cols = newPool()
		for _, pr := range o.Pricers {
			if rp, ok := pr.(RowPricer); ok {
				rp.Reset()
			}
		}
	}
	// The root box is the problem's own column bounds, which the search
	// never writes: the instance was compiled from them.
	s.rootLB, s.rootUB = p.LP.ColLB[:n:n], p.LP.ColUB[:n:n]
	if o.TimeLimit > 0 {
		s.deadline = start.Add(o.TimeLimit)
		s.hasDL = true
		s.dlCountdown = 1 // check wall clock on the very first node
	}
	return s
}

// result reports the search's work, root record and applied rows and
// columns; the caller fills in the status, the solution and its bound.
func (s *searcher) result() Result {
	res := Result{
		Work:    s.work,
		Runtime: time.Since(s.start), //lint:allow nondet -- wall-clock Runtime stat only
		Root:    s.root,
	}
	companionCols, companionRows := 0, 0
	for k := range s.log {
		if o := &s.log[k]; o.col {
			res.AppliedColumns = append(res.AppliedColumns, o.column())
			companionCols += len(o.cols)
			companionRows += len(o.rows)
		} else {
			res.AppliedCuts = append(res.AppliedCuts, o.cut())
		}
	}
	res.Cuts = CutStats{RowsAtRoot: s.prob.LP.NumRows(), SeparatedRows: len(res.AppliedCuts)}
	if s.cuts != nil {
		res.Cuts.Rounds = s.cuts.rounds
		res.Cuts.Offered = s.cuts.offered
		res.Cuts.PoolHits = s.cuts.hits
		res.Cuts.Evicted = s.cuts.evicted
	}
	res.Columns = ColumnStats{
		ColsAtRoot:    len(s.rootLB),
		PricedCols:    len(res.AppliedColumns) - companionCols,
		CompanionCols: companionCols,
		CompanionRows: companionRows,
	}
	if s.cols != nil {
		res.Columns.Rounds = s.cols.rounds
		res.Columns.Offered = s.cols.offered
		res.Columns.PoolHits = s.cols.hits
		res.Columns.Evicted = s.cols.evicted
	}
	return res
}

// toMin converts an original-sense objective to minimization sense.
func (s *searcher) toMin(v float64) float64 {
	if s.minimize {
		return v
	}
	return -v
}

func (s *searcher) fromMin(v float64) float64 { return s.toMin(v) } // involution

// relGap computes the relative optimality gap between an incumbent and a
// bound (both minimization-sense).
func relGap(inc, bound float64) float64 {
	if math.IsInf(inc, 1) {
		return math.Inf(1)
	}
	d := inc - bound
	if d <= 0 {
		return 0
	}
	den := math.Max(math.Abs(inc), math.Abs(bound))
	if den < gapDenFloor {
		den = gapDenFloor
	}
	return d / den
}

// globalBoundMin is the best minimization-sense bound over all open nodes
// (or the incumbent when the tree is exhausted).
func (s *searcher) globalBoundMin() float64 {
	best := s.incumbentMin
	if len(s.open) > 0 && s.open[0].bound < best {
		best = s.open[0].bound
	}
	return best
}

// timedOutEvery is the stride, in nodes, between wall-clock reads of the
// deadline check: time.Now() costs far more than the surrounding bookkeeping
// on the per-node hot path, so it is hoisted out and consulted every k-th
// node (the very first node always checks). The worst-case overshoot — k−1
// nodes — is bounded tightly anyway because every LP solve enforces the
// same deadline internally at its own iteration checkpoints.
const timedOutEvery = 16

func (s *searcher) timedOut() bool {
	if !s.hasDL {
		return false
	}
	s.dlCountdown--
	if s.dlCountdown > 0 {
		return false
	}
	s.dlCountdown = timedOutEvery
	return time.Now().After(s.deadline) //lint:allow nondet -- deadline enforcement is deliberate wall-clock dependence
}

// cancelled reports whether the solve's context has been cancelled.
func (s *searcher) cancelled() bool { return s.ctx.Err() != nil }

// emitProgress invokes the progress callback with a snapshot of the search.
func (s *searcher) emitProgress(newIncumbent bool) {
	if s.opts.Progress == nil {
		return
	}
	inc := math.NaN()
	if s.hasInc {
		inc = s.fromMin(s.incumbentMin)
	}
	bound := s.globalBoundMin()
	s.opts.Progress(Progress{
		Work:         s.work,
		Open:         len(s.open),
		Incumbent:    inc,
		Bound:        s.fromMin(bound),
		Gap:          relGap(s.incumbentMin, bound),
		Elapsed:      time.Since(s.start), //lint:allow nondet -- progress-callback timing stat
		NewIncumbent: newIncumbent,
	})
}

// fractional returns the index of the integer column to branch on, or -1 if
// x is integral. Selection: most fractional, ties broken by larger absolute
// objective coefficient.
func (s *searcher) fractional(x []float64) int {
	best, bestScore := -1, numtol.MIPIntTol
	for j, isInt := range s.prob.Integer {
		if !isInt {
			continue
		}
		f := math.Abs(x[j] - math.Round(x[j]))
		if f <= numtol.MIPIntTol {
			continue
		}
		score := 0.5 - math.Abs(f-0.5) // distance from integrality, peak at 0.5
		score += branchObjWeight * math.Abs(s.prob.LP.Obj[j])
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// tryIncumbent records x as the new incumbent if it improves.
func (s *searcher) tryIncumbent(x []float64, objMin float64) bool {
	if objMin >= s.incumbentMin-boundCutoffTol {
		return false
	}
	// The incumbent is handed out only when the search ends, so an
	// improvement overwrites the one it replaces.
	s.incumbent = append(s.incumbent[:0], x...)
	// Round the integer components exactly.
	for j, isInt := range s.prob.Integer {
		if isInt {
			s.incumbent[j] = math.Round(s.incumbent[j])
		}
	}
	s.incumbentMin = objMin
	s.hasInc = true
	s.emitProgress(true)
	return true
}

// roundingHeuristic tries to turn the node's fractional relaxation into a
// feasible integral solution. It first fixes all integer columns to their
// rounded LP values at once and re-solves over the continuous columns —
// cheap, and sufficient on near-integral vertices. When that fails (typical
// on symmetric relaxations whose vertices sit at one-half everywhere), it
// falls back to a bounded fix-and-dive pass: fix the integer column closest
// to integrality, re-solve warm, and repeat, letting the LP repair the
// remaining columns after every fix. Both passes run on the search's
// instance — whose bounds the caller has already set to the node's box —
// warm-started from the node's final basis and factors, so their outcome is
// as much a pure function of the committed node as the relaxations are. The
// instance bounds are left dirty; every use of s.inst reinstalls bounds
// from scratch.
func (s *searcher) roundingHeuristic(nd *node, res lp.Result) {
	touched := false
	for j, isInt := range s.prob.Integer {
		if !isInt {
			continue
		}
		lo, hi := s.inst.ColBounds(j)
		v := math.Round(res.X[j])
		if v < lo {
			v = math.Ceil(lo)
		}
		if v > hi {
			v = math.Floor(hi)
		}
		if v < lo || v > hi {
			return // no integral point in range
		}
		s.inst.SetColBounds(j, v, v)
		touched = true
	}
	if !touched {
		return
	}
	hres := s.heurSolve(&lp.Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
	rounded := hres.Status == lp.StatusOptimal
	if rounded {
		s.tryIncumbent(hres.X, s.toMin(hres.Obj))
	}
	s.drop(hres)
	if rounded {
		return
	}
	// The dive is a first-feasible rescue for models whose vertices the
	// simultaneous rounding can never repair (symmetric halves). Once any
	// incumbent exists the search prunes on it and the dive's extra LP
	// solves stop paying for themselves, so it is gated off.
	if !s.hasInc {
		s.diveHeuristic(nd, res)
	}
}

// diveHeuristic is the fix-and-dive fallback of roundingHeuristic: starting
// from the node's relaxation, repeatedly fix the fractional integer column
// closest to integrality (lowest index on ties) to its rounded value and
// re-solve warm, until the relaxation comes back integral, infeasible, or
// the pass budget is spent. One column is fixed per pass, so the LP can
// shift the remaining fractional columns after each fix — which is what
// lets the dive succeed where simultaneous rounding rounds into
// infeasibility.
func (s *searcher) diveHeuristic(nd *node, res lp.Result) {
	if !s.applyBounds(nd) {
		return
	}
	// prev is the latest pass's result, which the next pass warm-starts
	// from and reads x of; it is done once that pass is solved (its factors
	// live in the dive buffer).
	var prev lp.Result
	defer func() { s.drop(prev) }()
	basis, factors := res.Basis, res.Factors
	x := res.X
	for pass := 0; pass < maxDivePasses; pass++ {
		fix, bestFrac := -1, 1.0 // f ≤ 0.5 always; 1.0 admits exact halves
		for j, isInt := range s.prob.Integer {
			if !isInt {
				continue
			}
			f := math.Abs(x[j] - math.Round(x[j]))
			if f <= numtol.MIPIntTol {
				continue
			}
			if f < bestFrac {
				fix, bestFrac = j, f
			}
		}
		if fix == -1 {
			// Integral already (the caller would have branched otherwise
			// only on the first pass): nothing to dive on.
			return
		}
		lo, hi := s.inst.ColBounds(fix)
		v := math.Round(x[fix])
		if v < lo {
			v = math.Ceil(lo)
		}
		if v > hi {
			v = math.Floor(hi)
		}
		if v < lo || v > hi {
			return
		}
		s.inst.SetColBounds(fix, v, v)
		hres := s.heurSolve(&lp.Options{WarmBasis: basis, WarmFactors: factors})
		if hres.Status != lp.StatusOptimal {
			// One-level backtrack: rounding to the nearest integer painted
			// the dive into an infeasible corner; the other integer
			// neighbor may still work (typical for link-activation
			// columns, where rounding down severs a flow).
			s.drop(hres)
			alt := v + 1
			if math.Round(x[fix]) >= x[fix] {
				alt = v - 1
			}
			if alt < lo || alt > hi {
				return
			}
			s.inst.SetColBounds(fix, alt, alt)
			hres = s.heurSolve(&lp.Options{WarmBasis: basis, WarmFactors: factors})
			if hres.Status != lp.StatusOptimal {
				s.drop(hres)
				return
			}
		}
		if s.fractional(hres.X) == -1 {
			s.tryIncumbent(hres.X, s.toMin(hres.Obj))
			s.drop(hres)
			return
		}
		// The next pass warm-starts from this one. One buffer serves every
		// pass: a solve has copied its warm factors into its own solver
		// before it returns, so the capture may overwrite them.
		if s.diveFac == nil {
			s.diveFac = s.factors(s.inst.NumRows())
		}
		s.inst.CaptureFactors(&hres, s.diveFac)
		s.drop(prev)
		prev = hres
		basis, factors, x = hres.Basis, hres.Factors, hres.X
	}
}

// heurSolve runs one heuristic LP on the search's instance and counts its
// LP work into the search's totals.
func (s *searcher) heurSolve(lpo *lp.Options) lp.Result {
	lpo.Context = s.ctx
	if s.hasDL {
		lpo.Deadline = s.deadline
	}
	hres := s.inst.Solve(lpo)
	s.work.Add(LPWork(&hres))
	return hres
}

// run executes the branch-and-bound search. Every decision — pruning,
// incumbent updates, branching, heap order — depends only on relaxation
// results that are pure functions of their nodes, so the search is
// deterministic.
func (s *searcher) run() Status {
	heap.Push(&s.open, &node{col: -1, bound: math.Inf(-1), seq: s.seq()})

	for len(s.open) > 0 {
		nd := heap.Pop(&s.open).(*node)
		// Dive: after branching, continue immediately with one child, whose
		// relaxation warm-starts from the parent's final basis and factors;
		// the sibling goes to the heap. This is the classic best-first +
		// plunging hybrid.
		for nd != nil {
			if s.cancelled() {
				heap.Push(&s.open, nd)
				return StatusCancelled
			}
			if s.timedOut() || (s.opts.NodeLimit > 0 && s.work.Nodes >= s.opts.NodeLimit) {
				// Re-park the dive node so the reported global bound stays
				// valid.
				heap.Push(&s.open, nd)
				return StatusTimeLimit
			}
			// Bound-based pruning against the current incumbent.
			if s.hasInc && nd.bound >= s.incumbentMin-boundCutoffTol {
				s.retire(nd, nil, nil)
				break
			}
			if s.hasInc && relGap(s.incumbentMin, math.Min(nd.bound, s.globalBoundMin())) <= numtol.MIPGapTol {
				s.retire(nd, nil, nil)
				return StatusOptimal
			}
			s.work.Nodes++
			if s.work.Nodes%progressEvery == 0 {
				s.emitProgress(false)
			}
			// Install the node's box: it detects trivially infeasible chains
			// and stays in place for the relaxation and a potential
			// heuristic run below.
			if !s.applyBounds(nd) {
				s.retire(nd, nil, nil)
				break // empty bound interval: infeasible by construction
			}
			// Solve the relaxation, interleaving pricing and lazy-cut
			// separation rounds when pricers or separators are registered
			// (see cuts.go); the iteration accounting happens inside.
			res, col := s.solveSeparated(nd)
			switch res.Status {
			case lp.StatusInfeasible:
				s.retire(nd, res.Basis, res.Factors)
				nd = nil
				continue
			case lp.StatusUnbounded:
				if nd.col == -1 {
					return StatusUnbounded
				}
				s.retire(nd, res.Basis, res.Factors)
				nd = nil // should not happen below the root; treat as cut off
				continue
			case lp.StatusIterLimit, lp.StatusNumeric:
				if s.cancelled() {
					heap.Push(&s.open, nd)
					return StatusCancelled
				}
				// The node's relaxation did not converge (or failed
				// numerically); the search can no longer prove optimality,
				// so stop with what we have.
				s.retire(nd, res.Basis, res.Factors)
				return StatusTimeLimit
			}
			objMin := s.toMin(res.Obj)
			if s.hasInc && objMin >= s.incumbentMin-boundCutoffTol {
				s.retire(nd, res.Basis, res.Factors)
				s.dropVecs(res)
				break // dominated
			}
			if col < 0 {
				s.tryIncumbent(res.X, objMin)
				s.retire(nd, res.Basis, res.Factors)
				s.dropVecs(res)
				break
			}
			br := makeBranch(nd, col, objMin, res)
			if s.work.Nodes == 1 || s.work.Nodes%heuristicEvery == 0 {
				s.roundingHeuristic(nd, res)
			}
			s.retire(nd, nil, nil) // the branch owns res.Basis and res.Factors
			s.dropVecs(res)
			// Park the non-dive child on the heap.
			br.dive.seq = s.seq()
			br.park.seq = s.seq()
			heap.Push(&s.open, br.park)
			nd = br.dive
		}
	}
	if s.hasInc {
		return StatusOptimal
	}
	return StatusInfeasible
}

// seq returns the next node sequence number.
func (s *searcher) seq() int64 {
	v := s.nextSeq
	s.nextSeq++
	return v
}
