// Package lp implements a linear-programming solver: a bounded-variable
// revised simplex method. A cold solve runs a dual phase 1 from the
// all-slack basis, then the primal simplex; warm-started re-solves (used
// heavily by the branch-and-bound MIP solver in internal/mip) restart the
// dual simplex from a prior basis. Bland's rule is the anti-cycling
// fallback, and the basis is refactorized periodically for numerical
// stability.
//
// Problems are stated over structural columns x with bounds l ≤ x ≤ u and
// ranged rows rlb ≤ a·x ≤ rub; internally every row receives a slack
// ("row activity") variable so the system becomes A·x − s = 0.
package lp

import (
	"context"
	"fmt"
	"math"
	"time"

	"tvnep/internal/linalg/sparselu"
)

// Inf is the canonical infinity used for absent bounds.
var Inf = math.Inf(1)

// Sense describes the optimization direction of a Problem.
type Sense int

const (
	// Minimize the objective (the internal canonical form).
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Problem is a builder for an LP in the form
//
//	opt  c·x + offset
//	s.t. rlb_i ≤ a_i·x ≤ rub_i   for every row i
//	     lb_j ≤ x_j ≤ ub_j       for every column j
type Problem struct {
	Sense     Sense
	Obj       []float64 // length = number of columns
	ObjOffset float64
	ColLB     []float64
	ColUB     []float64

	RowLB []float64
	RowUB []float64

	// Rows in compressed sparse form: row i holds the entries
	// rowIdx/rowVal[rowEnd[i-1]:rowEnd[i]] (from 0 for the first row).
	rowEnd []int32
	rowIdx []int32
	rowVal []float64
	// slot is AddRow's merge scratch: slot[j] is the position of column j
	// in the row being added, and -1 between calls.
	slot []int32
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{Sense: Minimize} }

// Reset empties the problem back to what NewProblem returns, keeping its
// storage for the next problem built into it. Rows and slices obtained from
// the problem before the Reset are invalid afterwards.
func (p *Problem) Reset() {
	p.Sense, p.ObjOffset = Minimize, 0
	p.Obj, p.ColLB, p.ColUB = p.Obj[:0], p.ColLB[:0], p.ColUB[:0]
	p.RowLB, p.RowUB = p.RowLB[:0], p.RowUB[:0]
	p.rowEnd, p.rowIdx, p.rowVal = p.rowEnd[:0], p.rowIdx[:0], p.rowVal[:0]
}

// NumCols reports the number of structural columns.
func (p *Problem) NumCols() int { return len(p.Obj) }

// NumRows reports the number of rows.
func (p *Problem) NumRows() int { return len(p.rowEnd) }

// AddCol appends a column with the given objective coefficient and bounds,
// returning its index. lb may be -Inf and ub may be +Inf.
func (p *Problem) AddCol(obj, lb, ub float64) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: column %d has lb %v > ub %v", len(p.Obj), lb, ub))
	}
	p.Obj = append(p.Obj, obj)
	p.ColLB = append(p.ColLB, lb)
	p.ColUB = append(p.ColUB, ub)
	return len(p.Obj) - 1
}

// AddRow appends a ranged row rlb ≤ Σ val_k·x_{idx_k} ≤ rub and returns its
// index. Duplicate column indices within one row are merged. The row is
// copied; the caller may reuse idx and val.
//
//hot:path
func (p *Problem) AddRow(idx []int32, val []float64, rlb, rub float64) int {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("lp: row %d index/value length mismatch", p.NumRows())) //lint:allow hotalloc -- invalid-input panic
	}
	if rlb > rub {
		panic(fmt.Sprintf("lp: row %d has rlb %v > rub %v", p.NumRows(), rlb, rub)) //lint:allow hotalloc -- invalid-input panic
	}
	// Merge duplicates in place: entries keep their first-occurrence order
	// and sum left to right.
	n := p.NumCols()
	for len(p.slot) < n {
		p.slot = append(p.slot, -1) //lint:allow hotalloc -- amortized: the scratch grows to the widest problem built into p
	}
	start := len(p.rowIdx)
	for k, j := range idx {
		if int(j) < 0 || int(j) >= n {
			panic(fmt.Sprintf("lp: row %d references column %d out of range [0,%d)", p.NumRows(), j, n)) //lint:allow hotalloc -- invalid-input panic
		}
		if at := p.slot[j]; at >= 0 {
			p.rowVal[at] += val[k]
			continue
		}
		p.slot[j] = int32(len(p.rowIdx))
		p.rowIdx = append(p.rowIdx, j)      //lint:allow hotalloc -- amortized: a reset problem reuses its row storage
		p.rowVal = append(p.rowVal, val[k]) //lint:allow hotalloc -- amortized: a reset problem reuses its row storage
	}
	// Reset the scratch and drop the entries that merged to zero.
	w := start
	for at := start; at < len(p.rowIdx); at++ {
		j := p.rowIdx[at]
		p.slot[j] = -1
		if v := p.rowVal[at]; v != 0 {
			p.rowIdx[w], p.rowVal[w] = j, v
			w++
		}
	}
	p.endRow(w)
	p.RowLB = append(p.RowLB, rlb) //lint:allow hotalloc -- amortized: a reset problem reuses its row storage
	p.RowUB = append(p.RowUB, rub) //lint:allow hotalloc -- amortized: a reset problem reuses its row storage
	return p.NumRows() - 1
}

// endRow closes the row whose entries run from the previous row's end to
// end in rowIdx/rowVal.
func (p *Problem) endRow(end int) {
	p.rowIdx, p.rowVal = p.rowIdx[:end], p.rowVal[:end]
	p.rowEnd = append(p.rowEnd, int32(end)) //lint:allow hotalloc -- amortized: a reset problem reuses its row storage
}

// AddLE appends the row a·x ≤ rhs.
func (p *Problem) AddLE(idx []int32, val []float64, rhs float64) int {
	return p.AddRow(idx, val, math.Inf(-1), rhs)
}

// AddGE appends the row a·x ≥ rhs.
func (p *Problem) AddGE(idx []int32, val []float64, rhs float64) int {
	return p.AddRow(idx, val, rhs, Inf)
}

// AddEQ appends the row a·x = rhs.
func (p *Problem) AddEQ(idx []int32, val []float64, rhs float64) int {
	return p.AddRow(idx, val, rhs, rhs)
}

// Row returns the coefficient slices of row i (shared storage; do not
// mutate).
func (p *Problem) Row(i int) ([]int32, []float64) {
	lo, hi := int32(0), p.rowEnd[i]
	if i > 0 {
		lo = p.rowEnd[i-1]
	}
	return p.rowIdx[lo:hi:hi], p.rowVal[lo:hi:hi]
}

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal basic solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded over the feasible set.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit before convergence.
	StatusIterLimit
	// StatusNumeric means the solve was abandoned after an irrecoverable
	// numerical failure (e.g. a basis factorization that failed and could
	// not be repaired by a cold refactorization).
	StatusNumeric
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
	case StatusIterLimit:
		return "iteration-limit"
	case StatusNumeric:
		return "numeric-failure"
	default:
		return fmt.Sprintf("lp.Status(%d)", int(s))
	}
}

// Basis is a snapshot of a simplex basis usable for warm starts.
type Basis struct {
	Basic  []int32 // column index basic in each row position
	Status []int8  // per-column status: n structural columns, then m slacks
}

// Clone deep-copies the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	out := &Basis{Basic: make([]int32, len(b.Basic)), Status: make([]int8, len(b.Status))}
	copy(out.Basic, b.Basic)
	copy(out.Status, b.Status)
	return out
}

// Result holds the outcome of an LP solve.
type Result struct {
	Status     Status
	Obj        float64   // objective in the problem's original sense
	X          []float64 // structural column values (valid when Optimal)
	Duals      []float64 // row duals, in the problem's original sense
	Iterations int
	Basis      *Basis // final basis snapshot (valid when Optimal or Infeasible-by-dual)
	// BoundFlips counts nonbasic variables flipped between their bounds by
	// the long-step dual ratio test; each flip absorbs a would-be
	// (typically degenerate) pivot. RatioPasses counts the breakpoints the
	// long-step test walked through (flips plus entering choices).
	BoundFlips  int
	RatioPasses int
	// Factors is the LU factorization matching Basis. Solve leaves it nil;
	// Instance.CaptureFactors fills it with a capture: a hold on the
	// solver's LU base, which it does not copy, and a copy of its eta file.
	// Handing it to
	// Options.WarmFactors of a later solve warm-starts that solve without a
	// refactorization; hand it back with Instance.Reuse once no solve will.
	Factors *sparselu.Factors
	// WarmUsed reports that this result came from a successful warm-started
	// dual-simplex run (rather than the cold fallback). Unlike the
	// process-global Debug* counters it is attributable to one solve, which
	// is what lets concurrent callers (the admission engine, parallel
	// sweeps) account their own warm-start hit rates race-free.
	WarmUsed bool
	// BasisExtended reports that the warm start adopted a basis predating
	// rows appended with AppendRow AND extended its LU factors with a
	// bordered block (sparselu.ExtendInto) instead of refactorizing — the
	// cutting-plane/admission hot-restart fast path.
	BasisExtended bool
	// ColumnsRemapped reports that the warm start adopted a basis predating
	// columns appended with AppendColumn, remapped onto the widened column
	// space — the column-generation hot-restart path. The appended columns
	// enter nonbasic, so the old factorization is reused unchanged.
	ColumnsRemapped bool
}

// Options tunes a solve.
type Options struct {
	WarmBasis *Basis // if non-nil, attempt a dual-simplex warm start
	// WarmFactors, when non-nil, is the LU factorization of WarmBasis
	// (typically a prior Result.Factors). The warm start shares its LU base
	// and copies its eta file instead of refactorizing; the pivots it takes
	// never reach the capture, which any number of solves may adopt. The
	// caller must guarantee the factors actually belong to WarmBasis.
	WarmFactors *sparselu.Factors
	// Deadline aborts the solve (StatusIterLimit) once passed. Zero means
	// no deadline. Checked every few dozen iterations.
	Deadline time.Time
	// Context, when non-nil, aborts the solve (StatusIterLimit) as soon as
	// it is cancelled. Like Deadline it is checked at iteration
	// checkpoints, so cancellation takes effect within a few dozen simplex
	// iterations.
	Context context.Context
}

// iterBudget is a solve's simplex iteration budget: a warm attempt and its
// cold fallback share it.
func (inst *Instance) iterBudget() int { return 20000 + 50*(inst.m+inst.n) }

// Solve solves the problem from scratch (or from opts.WarmBasis when given)
// on a fresh Instance.
func Solve(p *Problem, opts *Options) Result {
	return NewInstance(p).Solve(opts)
}
