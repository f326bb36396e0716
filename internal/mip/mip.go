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
)

// Problem couples an LP with integrality markers.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // len == LP.NumCols(); true → column must be integral
}

// NewProblem wraps an LP builder; mark integer columns via SetInteger.
func NewProblem(p *lp.Problem) *Problem {
	return &Problem{LP: p, Integer: make([]bool, p.NumCols())}
}

// SetInteger marks column j as integral. The Integer slice is grown on
// demand so columns may be added to the LP after construction.
func (p *Problem) SetInteger(j int) {
	for len(p.Integer) <= j {
		p.Integer = append(p.Integer, false)
	}
	p.Integer[j] = true
}

// Status reports the outcome of a MIP solve.
type Status int

const (
	// StatusOptimal means the incumbent is proven optimal within GapTol.
	StatusOptimal Status = iota
	// StatusInfeasible means no integral solution exists.
	StatusInfeasible
	// StatusUnbounded means the relaxation (and thus the MIP, if feasible)
	// is unbounded.
	StatusUnbounded
	// StatusLimit means a time/node/iteration limit stopped the search; an
	// incumbent may or may not exist (check HasSolution).
	StatusLimit
	// StatusCancelled means the solve's context was cancelled before the
	// search concluded; an incumbent may or may not exist.
	StatusCancelled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
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
	Nodes        int
	Open         int // open (unexplored) nodes
	LPIterations int
	Incumbent    float64
	Bound        float64
	Gap          float64
	Elapsed      time.Duration
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
	GapTol    float64       // relative optimality gap, default numtol.MIPGapTol
	// HeuristicEvery runs the rounding heuristic at the root and at every
	// k-th node thereafter (0 → the default of 50; a negative value
	// disables the heuristic entirely, including at the root).
	HeuristicEvery int
	// Progress, when non-nil, is invoked on every new incumbent and every
	// ProgressEvery nodes. Callbacks run synchronously inside the search;
	// keep them cheap.
	Progress func(Progress)
	// ProgressEvery is the periodic callback interval in nodes (default
	// 100; < 0 disables periodic callbacks, leaving incumbent ones).
	ProgressEvery int
	// Separators generate valid inequalities lazily instead of having the
	// model emit them all up front; see the Separator contract in cuts.go.
	Separators []Separator
	// RootCutRounds bounds the separation rounds at the root node (0 → the
	// default of 20; negative → no root separation). The root is where cuts
	// pay off most, so it gets a much deeper budget than tree nodes.
	RootCutRounds int
	// TreeCutRounds bounds the separation rounds at each non-root node
	// (0 → the default of 2; negative → none).
	TreeCutRounds int
	// Pricers generate structural columns lazily instead of having the model
	// emit them all up front; see the Pricer contract in price.go. Unlike
	// separation, pricing runs to convergence at every node, since a
	// restricted relaxation's value is only a valid node bound once no
	// column prices in.
	Pricers []Pricer
	// PriceBatch is the maximum number of columns appended per pricing
	// round, taken in decreasing reduced-cost order (0 → the default of 32).
	PriceBatch int
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.GapTol <= 0 {
		out.GapTol = numtol.MIPGapTol
	}
	if out.HeuristicEvery == 0 {
		out.HeuristicEvery = 50
	}
	if out.ProgressEvery == 0 {
		out.ProgressEvery = 100
	}
	if out.RootCutRounds == 0 {
		out.RootCutRounds = 20
	} else if out.RootCutRounds < 0 {
		out.RootCutRounds = 0
	}
	if out.TreeCutRounds == 0 {
		out.TreeCutRounds = 2
	} else if out.TreeCutRounds < 0 {
		out.TreeCutRounds = 0
	}
	if out.PriceBatch <= 0 {
		out.PriceBatch = 32
	}
	return out
}

// Result reports the outcome of a solve. Obj, Bound and Gap are expressed in
// the problem's original optimization sense.
type Result struct {
	Status       Status
	HasSolution  bool
	Obj          float64   // incumbent objective (valid if HasSolution)
	Bound        float64   // best proven bound on the optimum
	Gap          float64   // relative gap; +Inf when no incumbent exists
	X            []float64 // incumbent solution
	Nodes        int
	LPIterations int // LP iterations of the search (deterministic)
	// BoundFlips and RatioPasses aggregate the LP solver's long-step dual
	// ratio-test activity over the search (see lp.Result); like
	// LPIterations they are deterministic.
	BoundFlips  int
	RatioPasses int
	Runtime     time.Duration
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
	// the LP relaxation, with its companion rows: the k-th entry is LP
	// column ColsAtRoot+k, so callers can map incumbent values back to
	// pricer payloads (Column.Tag) and re-validate each column and its rows
	// independently. Note that X may be shorter
	// than ColsAtRoot+len(AppliedColumns): an incumbent found before later
	// pricing rounds simply does not use the columns appended after it.
	AppliedColumns []Column
	// Root is the root node's first relaxation, over the problem's own rows
	// and columns before any cut or priced column was appended (with
	// SolveFrom, the handed root). It is the bound the search started
	// from, kept so callers can certify it; Basis and Factors are nil. It
	// is zero-valued when the search stopped before solving the root.
	Root lp.Result
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
	nodes   int
	iters   int // LP iterations (node relaxations + heuristics)
	bflips  int // long-step bound flips
	rpasses int // ratio-test breakpoint passes
	nextSeq int64

	// Lazy-cut and pricing state (see pool.go). cuts is nil when no
	// separators are registered, cols when no pricers are; log is the
	// append-only list of cut rows and priced columns added to the LP, in
	// commit order.
	cuts *pool
	cols *pool
	log  []op

	// root is the root node's first relaxation (Result.Root).
	root lp.Result

	// Recycled storage (see factors.go): the factor buffers' free list and
	// the stash behind it, the caller's handed root (hasHanded; never
	// recycled), and the dive heuristic's buffer.
	facs      facPool
	handed    lp.Result
	hasHanded bool
	diveFac   *sparselu.Factors

	deadline    time.Time
	hasDL       bool
	dlCountdown int // nodes until the next wall-clock deadline check
}

// Root is a root relaxation the caller has already solved. Inst must be
// compiled from the problem's LP (lp.NewInstance or lp.Workspaces.Compile)
// and still carry its construction bounds, and Res must be the result of
// Inst.Solve with no warm start and its factors captured
// (Inst.CaptureFactors) — exactly the relaxation the search would otherwise
// solve itself, so handing it over changes no decision. The search takes
// Inst over: it sets its column bounds and appends cut rows and priced
// columns to it, so the caller may only Release or Recycle Inst once the
// search returns. Res and its factors stay the caller's and are never
// written.
type Root struct {
	Inst *lp.Instance
	Res  lp.Result
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

// SolveFrom is Solve starting from an already-solved root relaxation: the
// search runs on root.Inst instead of compiling and equilibrating the LP
// again, and commits root.Res as the root node's relaxation instead of
// solving it again. The root's LP iterations were paid by the caller, so
// they are not part of Result.LPIterations. When root.Inst draws from an
// lp.Workspaces source, the search recycles its factor buffers, bases and
// solution vectors through it (see factors.go). A nil root is Solve.
//
//det:entry
func SolveFrom(ctx context.Context, p *Problem, opts *Options, root *Root) Result {
	start := time.Now() //lint:allow nondet -- wall-clock Runtime stat only
	if ctx == nil {
		ctx = context.Background()
	}
	o := opts.withDefaults()
	var inst *lp.Instance
	var handed lp.Result
	if root != nil {
		inst, handed = root.Inst, root.Res
	} else {
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
		handed:       handed,
		hasHanded:    root != nil,
		facs:         facPool{stash: inst.Workspaces()},
	}
	n := p.LP.NumCols()
	for len(p.Integer) < n {
		p.Integer = append(p.Integer, false)
	}
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

	status := s.run()
	res := Result{
		Status:       status,
		HasSolution:  s.hasInc,
		Nodes:        s.nodes,
		LPIterations: s.iters,
		BoundFlips:   s.bflips,
		RatioPasses:  s.rpasses,
		Runtime:      time.Since(start), //lint:allow nondet -- wall-clock Runtime stat only
		Root:         s.root,
	}
	companion := 0
	for k := range s.log {
		if o := &s.log[k]; o.col {
			res.AppliedColumns = append(res.AppliedColumns, o.column())
			companion += len(o.rows)
		} else {
			res.AppliedCuts = append(res.AppliedCuts, o.cut())
		}
	}
	res.Cuts = CutStats{RowsAtRoot: p.LP.NumRows(), SeparatedRows: len(res.AppliedCuts)}
	if s.cuts != nil {
		res.Cuts.Rounds = s.cuts.rounds
		res.Cuts.Offered = s.cuts.offered
		res.Cuts.PoolHits = s.cuts.hits
		res.Cuts.Evicted = s.cuts.evicted
	}
	res.Columns = ColumnStats{ColsAtRoot: n, PricedCols: len(res.AppliedColumns), CompanionRows: companion}
	if s.cols != nil {
		res.Columns.Rounds = s.cols.rounds
		res.Columns.Offered = s.cols.offered
		res.Columns.PoolHits = s.cols.hits
		res.Columns.Evicted = s.cols.evicted
	}
	bound := s.globalBoundMin()
	if s.hasInc {
		res.X = s.incumbent
		res.Obj = s.fromMin(s.incumbentMin)
		res.Gap = relGap(s.incumbentMin, bound)
	} else {
		res.Gap = math.Inf(1)
	}
	res.Bound = s.fromMin(bound)
	if status == StatusOptimal && s.hasInc {
		res.Gap = 0
		res.Bound = res.Obj
	}
	s.release()
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
		Nodes:        s.nodes,
		Open:         len(s.open),
		LPIterations: s.iters,
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
			s.diveFac = s.facs.get(s.inst.NumRows())
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
	s.iters += hres.Iterations
	s.bflips += hres.BoundFlips
	s.rpasses += hres.RatioPasses
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
			if s.timedOut() || (s.opts.NodeLimit > 0 && s.nodes >= s.opts.NodeLimit) {
				// Re-park the dive node so the reported global bound stays
				// valid.
				heap.Push(&s.open, nd)
				return StatusLimit
			}
			// Bound-based pruning against the current incumbent.
			if s.hasInc && nd.bound >= s.incumbentMin-boundCutoffTol {
				s.retire(nd, nil, nil)
				break
			}
			if s.hasInc && relGap(s.incumbentMin, math.Min(nd.bound, s.globalBoundMin())) <= s.opts.GapTol {
				s.retire(nd, nil, nil)
				return StatusOptimal
			}
			s.nodes++
			if s.opts.ProgressEvery > 0 && s.nodes%s.opts.ProgressEvery == 0 {
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
				return StatusLimit
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
			if s.opts.HeuristicEvery > 0 && (s.nodes == 1 || s.nodes%s.opts.HeuristicEvery == 0) {
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
