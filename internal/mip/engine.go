package mip

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"tvnep/internal/lp"
)

// The parallel node-solving engine behind Solve.
//
// Determinism comes from a strict split of responsibilities: the committer
// (the searcher's run loop) is the only goroutine that touches the heap,
// the node counter, the incumbent and the progress callbacks, and it
// executes the exact sequential branch-and-bound algorithm. Workers only
// evaluate LP relaxations — and a node's relaxation is a pure function of
// its bound chain, warm basis and warm factors — so it does not matter
// which worker solves a node, or when: the committed search replays the
// same decisions in the same order for any worker count. Parallel speedup
// comes from speculation: after solving a node a worker immediately
// enqueues that node's children, so by the time the committer reaches a
// frontier node its relaxation (and often its subtree's) is already done.
// Speculative work the committer never commits is wasted, never wrong; its
// LP iterations are reported separately in Result.WastedLPIterations.

// lpTask is one node-relaxation evaluation. It is created exactly once per
// node, solved by exactly one worker (claimed) or adopted from a root the
// caller solved, and read by the committer only after done is closed.
type lpTask struct {
	nd *node

	// demand is set by the committer when it is (about to be) blocked on
	// this task; workers never skip a demanded task.
	demand atomic.Bool
	// claimed is CAS-acquired by the worker that evaluates the task;
	// losers drop the task (it can transiently sit in both queues).
	claimed atomic.Bool

	// Written by the claiming worker before done is closed.
	res      lp.Result
	children *branch // non-nil iff res is optimal and fractional
	worker   int     // 1-based id of the solving worker
	skipped  bool    // dominated speculative work, not evaluated
	// epoch is the number of committed incremental ops (cut rows and priced
	// columns, interleaved in commit order) the solving worker had applied
	// to its instance when it evaluated the task. The committer discards
	// results from older epochs (re-demanding the node), so every committed
	// relaxation saw the full committed op log — which is what keeps
	// separation and pricing deterministic under speculation.
	epoch int

	done chan struct{}
}

// branch is the deterministic pair of children created from one fractional
// relaxation. dive is the side the fractional value leans to.
type branch struct {
	dive, park *node
}

// workQueue is the two-priority task queue: demanded tasks (the committer
// is waiting) are FIFO and always served first; speculative tasks form a
// LIFO stack so workers chase the deepest — most-likely-next — dive chain.
type workQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	demand []*lpTask
	spec   []*lpTask
	closed bool
}

func newWorkQueue() *workQueue {
	q := &workQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a task is available or the queue is closed (nil).
func (q *workQueue) pop() *lpTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.demand) > 0 {
			t := q.demand[0]
			q.demand[0] = nil
			q.demand = q.demand[1:]
			return t
		}
		if n := len(q.spec); n > 0 {
			t := q.spec[n-1]
			q.spec[n-1] = nil
			q.spec = q.spec[:n-1]
			return t
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// pushSpec enqueues speculative work, dropping it when the backlog is
// already limit tasks deep (a dropped task is simply solved on demand
// later).
func (q *workQueue) pushSpec(t *lpTask, limit int) {
	q.mu.Lock()
	if !q.closed && len(q.spec) < limit {
		q.spec = append(q.spec, t)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// pushDemand moves t to the head-priority queue. If the task still sits in
// the speculative stack it is promoted; if it was never enqueued (dropped
// speculation) it is enqueued now. Claimed tasks are left alone — a worker
// is already on them. The claim CAS makes a harmless double enqueue safe.
func (q *workQueue) pushDemand(t *lpTask) {
	q.mu.Lock()
	if !q.closed && !t.claimed.Load() {
		for i, st := range q.spec {
			if st == t {
				q.spec = append(q.spec[:i], q.spec[i+1:]...)
				break
			}
		}
		q.demand = append(q.demand, t)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *workQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// engine owns the worker pool of one Solve call.
type engine struct {
	s     *searcher
	q     *workQueue
	wg    sync.WaitGroup
	ctx   context.Context
	stopf context.CancelFunc

	// speculate is false for a single worker: one worker chasing
	// speculative tasks could only delay the committer's demands, so the
	// engine degenerates to the exact serial work profile.
	speculate bool
	specCap   int

	// incBits is the minimization-sense incumbent objective as an atomic
	// float64 image, published by the committer on every improvement and
	// read by workers to skip dominated speculation. It only ever
	// decreases, which is what makes the skip safe: any node a worker
	// deems dominated is guaranteed to be pruned by the committer too.
	incBits atomic.Uint64

	// taskIters accumulates LP iterations across every evaluated task,
	// committed or not; the excess over the committed count is reported as
	// Result.WastedLPIterations.
	taskIters atomic.Int64

	// ops is the committer-published snapshot of the committed incremental
	// ops: cut rows and priced columns, interleaved in commit order. The
	// committer appends to its master slices and re-publishes the header
	// after each batch, so every snapshot is a prefix of an append-only
	// log: a worker holding an older header can never observe the elements
	// a newer batch appends behind it. Replaying the interleaved order —
	// not cuts-then-columns — is what lets a committed cut reference any
	// column that existed when it was committed and vice versa.
	ops atomic.Pointer[opSnap]
}

// The two op kinds of the incremental log; opSnap.order holds one entry per
// committed op, and its value selects which master slice the op came from.
const (
	opCut byte = iota
	opCol
)

// opSnap is an immutable view of the first len(order) committed ops; the
// cuts and cols slices hold the ops of each kind in commit order.
type opSnap struct {
	cuts  []Cut
	cols  []Column
	order []byte
}

// workerSync tracks how much of the committed op log one worker's instance
// has replayed, split per kind (cursor into each master slice).
type workerSync struct {
	ops, cuts, cols int
}

func newEngine(s *searcher) *engine {
	e := &engine{
		s:         s,
		q:         newWorkQueue(),
		speculate: s.opts.Workers > 1,
		specCap:   64 + 4*s.opts.Workers,
	}
	e.ctx, e.stopf = context.WithCancel(s.ctx)
	e.incBits.Store(math.Float64bits(math.Inf(1)))
	e.ops.Store(&opSnap{})
	s.eng = e
	e.wg.Add(s.opts.Workers)
	for id := 1; id <= s.opts.Workers; id++ {
		// Clone here, before the committer starts mutating its own
		// instance's bounds: the clones must snapshot the root bounds.
		go e.worker(id, s.inst.Clone())
	}
	return e
}

// stop aborts in-flight speculative solves and waits for every worker to
// exit, so no goroutine outlives Solve.
func (e *engine) stop() {
	e.stopf()
	e.q.close()
	e.wg.Wait()
}

// incumbentMin returns the worker-visible incumbent bound.
func (e *engine) incumbentMin() float64 {
	return math.Float64frombits(e.incBits.Load())
}

// publishIncumbent is called by the committer (only) on each improvement.
func (e *engine) publishIncumbent(objMin float64) {
	e.incBits.Store(math.Float64bits(objMin))
}

// publishOps is called by the committer (only) after appending a cut or
// column batch to its own instance; the arguments are the committer's master
// slices (searcher.applied/appliedCols/opOrder).
func (e *engine) publishOps(cuts []Cut, cols []Column, order []byte) {
	e.ops.Store(&opSnap{cuts: cuts, cols: cols, order: order})
}

// resolve hands the committer the evaluated task for nd, creating and
// demanding one if no worker speculated it. ok is false when the solve's
// context was cancelled while waiting.
func (e *engine) resolve(nd *node) (t *lpTask, ok bool) {
	for {
		t = nd.task
		if t == nil {
			t = &lpTask{nd: nd, done: make(chan struct{})}
			t.demand.Store(true)
			nd.task = t
		} else {
			t.demand.Store(true)
		}
		e.q.pushDemand(t)
		select {
		case <-t.done:
		case <-e.s.ctx.Done():
			return nil, false
		}
		if !t.skipped && t.epoch == len(e.s.opOrder) {
			return t, true
		}
		// Stale: a worker raced the demand flag and skipped the task as
		// dominated, or evaluated it speculatively before the latest cut or
		// column batch was committed. Retry with a fresh, pre-demanded task:
		// workers never skip those, and a demanded task is always solved at
		// the current epoch because the committer publishes the op-log
		// snapshot before enqueueing the demand and the worker syncs its
		// instance from the snapshot before solving.
		nd.task = nil
	}
}

// worker is the body of one worker goroutine. Each worker owns an Instance
// clone, so no simplex state is ever shared.
func (e *engine) worker(id int, inst *lp.Instance) {
	defer e.wg.Done()
	var sync workerSync // committed ops already applied to this instance
	for {
		t := e.q.pop()
		if t == nil {
			return
		}
		if !t.claimed.CompareAndSwap(false, true) {
			continue
		}
		e.evaluate(inst, id, t, &sync)
	}
}

// evaluate solves one node relaxation on the worker's instance and, when it
// branches, creates the node's children and speculates on them. sync tracks
// how much of the committed op log this worker's instance carries.
func (e *engine) evaluate(inst *lp.Instance, id int, t *lpTask, sync *workerSync) {
	defer close(t.done)
	s := e.s
	t.worker = id
	nd := t.nd
	if !t.demand.Load() && s.hasIncBound(nd.bound, e.incumbentMin()) {
		// Dominated speculation: the committer is guaranteed to prune nd
		// too, because the incumbent it will hold then is at least as good
		// as the one observed here.
		t.skipped = true
		return
	}
	// Replay committed ops this instance has not seen yet, in commit order.
	// Cuts are globally valid inequalities and priced columns are genuine
	// variables of the full formulation, so applying them to every
	// subsequent node relaxation is sound; the recorded epoch lets the
	// committer reject results that predate the ops it has committed.
	snap := e.ops.Load()
	for sync.ops < len(snap.order) {
		switch snap.order[sync.ops] {
		case opCut:
			c := snap.cuts[sync.cuts]
			inst.AppendRow(c.Idx, c.Val, c.LB, c.UB)
			sync.cuts++
		default:
			c := snap.cols[sync.cols]
			inst.AppendColumn(c.Idx, c.Val, c.LB, c.UB, c.Obj)
			sync.cols++
		}
		sync.ops++
	}
	t.epoch = sync.ops
	if !applyBoundsOn(inst, s.rootLB, s.rootUB, nd) {
		// Empty bound interval: the relaxation is infeasible by
		// construction (the committer never demands such nodes).
		t.res = lp.Result{Status: lp.StatusInfeasible}
		return
	}
	lpo := lp.Options{Context: e.ctx, CaptureFactors: true}
	if nd.basis != nil {
		lpo.WarmBasis = nd.basis
		lpo.WarmFactors = nd.fac
	}
	if s.hasDL {
		lpo.Deadline = s.deadline
	}
	res := inst.Solve(&lpo)
	e.taskIters.Add(int64(res.Iterations))
	e.finish(t, res)
}

// adopt installs a relaxation the caller already solved as nd's evaluated
// task, in the state a worker would have left it; the task is never
// enqueued. Its LP counters are zeroed: the caller paid for that solve, so
// it is no part of the committed search's iteration count.
func (e *engine) adopt(nd *node, res lp.Result) {
	t := &lpTask{nd: nd, done: make(chan struct{})}
	t.claimed.Store(true)
	res.Iterations, res.BoundFlips, res.RatioPasses = 0, 0, 0
	e.finish(t, res)
	close(t.done)
	nd.task = t
}

// finish records an evaluated relaxation on its task and, when it branches,
// creates the node's children and speculates on them.
func (e *engine) finish(t *lpTask, res lp.Result) {
	t.res = res
	if res.Status != lp.StatusOptimal {
		return
	}
	nd := t.nd
	col := e.s.fractional(res.X)
	if col < 0 {
		return // integral: a leaf, no children
	}
	t.children = makeBranch(nd, col, e.s.toMin(res.Obj), res)
	if e.speculate {
		// Enqueue park first so the LIFO stack hands out the dive side
		// before it, extending this speculative dive chain exactly the way
		// the committer will walk it.
		br := t.children
		br.park.task = &lpTask{nd: br.park, done: make(chan struct{})}
		br.dive.task = &lpTask{nd: br.dive, done: make(chan struct{})}
		e.q.pushSpec(br.park.task, e.specCap)
		e.q.pushSpec(br.dive.task, e.specCap)
	}
}

// hasIncBound reports whether a node bound is cut off by the given
// minimization-sense incumbent value (+Inf when none exists).
func (s *searcher) hasIncBound(bound, incMin float64) bool {
	return !math.IsInf(incMin, 1) && bound >= incMin-boundCutoffTol
}

// makeBranch builds the deterministic child pair of a fractional node. Both
// children warm-start from the parent's final basis and captured factors
// (the factors are shared read-only; every warm start clones them).
func makeBranch(nd *node, col int, objMin float64, res lp.Result) *branch {
	v := res.X[col]
	down := &node{
		parent: nd, col: col,
		lo: math.Inf(-1), hi: math.Floor(v),
		depth: nd.depth + 1, bound: objMin,
		basis: res.Basis, fac: res.Factors,
	}
	up := &node{
		parent: nd, col: col,
		lo: math.Ceil(v), hi: math.Inf(1),
		depth: nd.depth + 1, bound: objMin,
		basis: res.Basis, fac: res.Factors,
	}
	// Dive towards the side the fractional value leans to.
	if v-math.Floor(v) > 0.5 {
		return &branch{dive: up, park: down}
	}
	return &branch{dive: down, park: up}
}

// applyBoundsOn installs the node's bound-override chain onto an instance,
// reporting false when the chain produces an empty interval. It is the
// worker-side twin of searcher.applyBounds and must stay in lockstep with
// it: both must derive identical boxes for identical chains.
func applyBoundsOn(inst *lp.Instance, rootLB, rootUB []float64, nd *node) bool {
	for j := range rootLB {
		inst.SetColBounds(j, rootLB[j], rootUB[j])
	}
	// Walk the chain root→leaf so deeper overrides win.
	var chain []*node
	for c := nd; c != nil && c.col >= 0; c = c.parent {
		chain = append(chain, c)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		lo, hi := inst.ColBounds(c.col)
		if c.lo > lo {
			lo = c.lo
		}
		if c.hi < hi {
			hi = c.hi
		}
		if lo > hi {
			return false
		}
		inst.SetColBounds(c.col, lo, hi)
	}
	return true
}
