// Package model provides a small algebraic modeling layer over the LP/MIP
// solvers (a deliberately minimal analogue of the Gurobi API the paper's
// formulations were originally written against): variable handles, linear
// expressions, keyed ranged constraints, and objective senses.
package model

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"tvnep/internal/lp"
	"tvnep/internal/mip"
)

// Inf returns the +infinity bound value.
func Inf() float64 { return math.Inf(1) }

// Sense of the objective.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Var is a handle to a model variable.
type Var struct {
	idx int
	m   *Model
}

// Index returns the variable's column index.
func (v Var) Index() int { return v.idx }

// Valid reports whether the handle refers to a variable.
func (v Var) Valid() bool { return v.m != nil }

// Key identifies one compiled model row: a constraint family plus up to
// three indices, -1 marking the unused ones. It is comparable and builds
// without allocating; String renders the row's text, e.g. prec[3][7][2],
// only when a message needs it.
type Key struct {
	Fam     string
	I, J, K int32
}

// Key1, Key2 and Key3 return the keys of rows fam[i], fam[i][j] and
// fam[i][j][k].
func Key1(fam string, i int) Key       { return Key{fam, int32(i), -1, -1} }
func Key2(fam string, i, j int) Key    { return Key{fam, int32(i), int32(j), -1} }
func Key3(fam string, i, j, k int) Key { return Key{fam, int32(i), int32(j), int32(k)} }

// String renders the family followed by one bracketed index per used index.
func (k Key) String() string {
	b := []byte(k.Fam)
	for _, x := range [...]int32{k.I, k.J, k.K} {
		if x < 0 {
			break
		}
		b = strconv.AppendInt(append(b, '['), int64(x), 10)
		b = append(b, ']')
	}
	return string(b)
}

// LinExpr is a linear expression Σ coef_i·var_i + constant. Its terms are
// stored in the form lp.Problem.AddRow takes, so adding it as a row copies
// nothing but the row itself. A builder that emits many rows keeps one
// LinExpr per row under construction and Resets it for each row.
type LinExpr struct {
	vars  []int32
	coefs []float64
	Const float64
}

// Expr creates an empty linear expression.
func Expr() *LinExpr { return &LinExpr{} }

// Term creates the expression coef·v.
func Term(coef float64, v Var) *LinExpr { return Expr().Add(coef, v) }

// Reset empties the expression, keeping its storage, and returns it for
// chaining.
//
//hot:path
func (e *LinExpr) Reset() *LinExpr {
	e.vars, e.coefs, e.Const = e.vars[:0], e.coefs[:0], 0
	return e
}

// Add appends coef·v to the expression and returns it for chaining.
//
//hot:path
func (e *LinExpr) Add(coef float64, v Var) *LinExpr {
	e.vars = append(e.vars, int32(v.idx)) //lint:allow hotalloc -- amortized: a reused expression stops growing at its longest row
	e.coefs = append(e.coefs, coef)       //lint:allow hotalloc -- amortized: a reused expression stops growing at its longest row
	return e
}

// AddConst adds a constant and returns the expression for chaining.
func (e *LinExpr) AddConst(c float64) *LinExpr {
	e.Const += c
	return e
}

// AddExpr adds scale·other to the expression.
//
//hot:path
func (e *LinExpr) AddExpr(scale float64, other *LinExpr) *LinExpr {
	for k, vi := range other.vars {
		e.vars = append(e.vars, vi)                     //lint:allow hotalloc -- amortized: a reused expression stops growing at its longest row
		e.coefs = append(e.coefs, scale*other.coefs[k]) //lint:allow hotalloc -- amortized: a reused expression stops growing at its longest row
	}
	e.Const += scale * other.Const
	return e
}

// Len returns the number of (unmerged) terms.
func (e *LinExpr) Len() int { return len(e.vars) }

// Model is an optimization model under construction.
type Model struct {
	lp      *lp.Problem
	keys    []Key // keys[i] identifies row i
	integer []bool
	sense   Sense
	seps    []Separator
	prs     []Pricer
}

// New creates an empty model with the given objective sense.
func New(sense Sense) *Model {
	m := &Model{lp: lp.NewProblem()}
	m.Reset(sense)
	return m
}

// Reset empties the model for a rebuild with the given objective sense,
// keeping the storage of its LP rows, bounds, objective, keys and
// integrality markers, so a caller that builds one model after another
// allocates only where a model outgrows every earlier one. Separators and
// pricers are dropped. Every handle, row and shared slice obtained from the
// model before the Reset is invalid afterwards.
func (m *Model) Reset(sense Sense) {
	m.lp.Reset()
	if sense == Maximize {
		m.lp.Sense = lp.Maximize
	}
	m.sense = sense
	m.keys = m.keys[:0]
	m.integer = m.integer[:0]
	m.seps, m.prs = nil, nil
}

// LP exposes the underlying LP problem (shared storage; callers must treat
// it as read-only). It exists so external checks — the root-LP
// certificate, feasibility audits — can inspect the exact rows the solver
// sees.
func (m *Model) LP() *lp.Problem { return m.lp }

// NumVars reports the number of variables.
func (m *Model) NumVars() int { return m.lp.NumCols() }

// NumConstrs reports the number of constraints.
func (m *Model) NumConstrs() int { return m.lp.NumRows() }

// RowKey returns the key row i was added under.
func (m *Model) RowKey(i int) Key { return m.keys[i] }

// NumIntVars reports the number of integer (incl. binary) variables.
func (m *Model) NumIntVars() int {
	c := 0
	for _, b := range m.integer {
		if b {
			c++
		}
	}
	return c
}

// Continuous adds a continuous variable with the given bounds and zero
// objective coefficient.
func (m *Model) Continuous(lb, ub float64) Var {
	idx := m.lp.AddCol(0, lb, ub)
	m.integer = append(m.integer, false)
	return Var{idx: idx, m: m}
}

// Binary adds a {0,1} variable.
func (m *Model) Binary() Var {
	idx := m.lp.AddCol(0, 0, 1)
	m.integer = append(m.integer, true)
	return Var{idx: idx, m: m}
}

// IntegerVar adds a general integer variable.
func (m *Model) IntegerVar(lb, ub float64) Var {
	idx := m.lp.AddCol(0, lb, ub)
	m.integer = append(m.integer, true)
	return Var{idx: idx, m: m}
}

// SetBounds overrides a variable's bounds.
func (m *Model) SetBounds(v Var, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("model: SetBounds(column %d): lb %v > ub %v", v.idx, lb, ub))
	}
	m.lp.ColLB[v.idx] = lb
	m.lp.ColUB[v.idx] = ub
}

// Fix pins a variable to a single value.
func (m *Model) Fix(v Var, val float64) { m.SetBounds(v, val, val) }

// Bounds returns a variable's bounds.
func (m *Model) Bounds(v Var) (lb, ub float64) { return m.lp.ColLB[v.idx], m.lp.ColUB[v.idx] }

// SetObjective replaces the whole objective with the expression.
func (m *Model) SetObjective(e *LinExpr) {
	for j := range m.lp.Obj {
		m.lp.Obj[j] = 0
	}
	for k, vi := range e.vars {
		m.lp.Obj[vi] += e.coefs[k]
	}
	m.lp.ObjOffset = e.Const
}

// AddLE adds the constraint e ≤ rhs under key.
//
//hot:path
func (m *Model) AddLE(e *LinExpr, rhs float64, key Key) int {
	return m.AddRange(e, math.Inf(-1), rhs, key)
}

// AddGE adds the constraint e ≥ rhs under key.
//
//hot:path
func (m *Model) AddGE(e *LinExpr, rhs float64, key Key) int {
	return m.AddRange(e, rhs, math.Inf(1), key)
}

// AddEQ adds the constraint e = rhs under key.
//
//hot:path
func (m *Model) AddEQ(e *LinExpr, rhs float64, key Key) int {
	return m.AddRange(e, rhs, rhs, key)
}

// AddRange adds lo ≤ e ≤ hi under key. The row is copied; e may be reset
// and reused for the next row.
//
//hot:path
func (m *Model) AddRange(e *LinExpr, lo, hi float64, key Key) int {
	m.keys = append(m.keys, key) //lint:allow hotalloc -- amortized: a rebuilt model reuses its key storage
	return m.lp.AddRow(e.vars, e.coefs, lo-e.Const, hi-e.Const)
}

// CutLE converts an expression into the ≤-cut record e ≤ rhs, the lazy
// counterpart of AddLE: instead of becoming a static row it can be returned
// from a Separator and appended only when violated. The cut owns copies of
// e's terms.
func CutLE(e *LinExpr, rhs float64) Cut {
	return Cut{
		Idx: append([]int32(nil), e.vars...), Val: append([]float64(nil), e.coefs...),
		LB: math.Inf(-1), UB: rhs - e.Const,
	}
}

// CutGE converts an expression into the ≥-row record e ≥ rhs, the lazy
// counterpart of AddGE. The cut owns copies of e's terms.
func CutGE(e *LinExpr, rhs float64) Cut {
	return Cut{
		Idx: append([]int32(nil), e.vars...), Val: append([]float64(nil), e.coefs...),
		LB: rhs - e.Const, UB: math.Inf(1),
	}
}

// RegisterSeparator attaches a lazy-cut separator to the model: instead of
// emitting a constraint family as static rows, Optimize will call the
// separator on fractional relaxation points and append only the violated
// members. Separators must satisfy the validity and determinism contract
// documented on mip.Separator; registration order is significant (it is the
// order separators are consulted each round).
func (m *Model) RegisterSeparator(sep Separator) {
	m.seps = append(m.seps, sep)
}

// Separators returns the registered separators (shared slice; treat as
// read-only).
func (m *Model) Separators() []Separator { return m.seps }

// RegisterPricer attaches a column-generation pricer to the model: instead of
// emitting a variable family as static columns, Optimize will call the pricer
// on relaxation dual values and append only improving members. Pricers must
// satisfy the validity and determinism contract documented on mip.Pricer;
// registration order is significant (it is the order pricers are consulted
// each round).
func (m *Model) RegisterPricer(pr Pricer) {
	m.prs = append(m.prs, pr)
}

// Pricers returns the registered pricers (shared slice; treat as read-only).
func (m *Model) Pricers() []Pricer { return m.prs }

// Solution is the result of optimizing a model: the search's result, whose
// Root is the root node's first relaxation over LP()'s own rows and
// columns (internal/certify checks it with certify.LP).
type Solution struct {
	mip.Result
}

// Value returns the solution value of v (NaN when no solution exists).
func (s *Solution) Value(v Var) float64 {
	if !s.HasSolution || v.idx >= len(s.Result.X) {
		return math.NaN()
	}
	return s.Result.X[v.idx]
}

// X returns the raw column assignment (shared slice; treat as read-only),
// nil when no solution exists. It exists for callers that evaluate rows
// produced outside the model layer — applied cut records carry raw column
// indices, and internal/certify re-checks them against the incumbent.
func (s *Solution) X() []float64 {
	if !s.HasSolution {
		return nil
	}
	return s.Result.X
}

// ValueOf returns the solution value of an expression.
func (s *Solution) ValueOf(e *LinExpr) float64 {
	val := e.Const
	for k, vi := range e.vars {
		val += e.coefs[k] * s.Result.X[vi]
	}
	return val
}

// Optimize solves the model as a MIP. Cancelling ctx stops the search
// cooperatively (Status == StatusCancelled); a nil ctx is treated as
// context.Background(). A nil opts solves with the solver defaults.
func (m *Model) Optimize(ctx context.Context, opts *SolveOptions) *Solution {
	return m.OptimizeFrom(ctx, opts, nil)
}

// OptimizeFrom is Optimize on an unsolved instance the caller compiled
// from LP() (lp.NewInstance or lp.Instance.Recompile), so the search draws
// on the caller's recycled storage; the caller may recompile inst once the
// search returns (see mip.SolveFrom). A nil inst is Optimize.
func (m *Model) OptimizeFrom(ctx context.Context, opts *SolveOptions, inst *lp.Instance) *Solution {
	mo := opts.mipOptions()
	if len(m.seps) > 0 {
		if mo == nil {
			mo = &mip.Options{}
		}
		mo.Separators = m.seps
	}
	if len(m.prs) > 0 {
		if mo == nil {
			mo = &mip.Options{}
		}
		mo.Pricers = m.prs
	}
	return &Solution{Result: mip.SolveFrom(ctx, &mip.Problem{LP: m.lp, Integer: m.integer}, mo, inst)}
}

// IntegerMask returns the per-column integrality markers (shared slice;
// treat as read-only). Index it with Var.Index.
func (m *Model) IntegerMask() []bool { return m.integer }

// SolutionFromLP wraps a raw LP result over this model's columns into a
// Solution, so callers that solve the model's LP() through their own
// lp.Instance (to keep the basis and LU factors for warm restarts) can
// reuse the variable-indexed accessors and extractors. The LP bound is only
// a bound on the MIP; HasSolution is set for an optimal LP result whether
// or not it is integral.
func (m *Model) SolutionFromLP(res lp.Result) *Solution {
	return &Solution{Result: mip.LPResult(res)}
}

// Relax solves the LP relaxation (integrality dropped) with the model's
// pricers and separators, so its value bounds the MIP whatever the model
// leaves to them: pricing runs to convergence and the separators get the
// root's cut rounds (see mip.Relax). A model with neither is one cold LP
// solve. Cancelling ctx stops the solve (Status == StatusCancelled); a nil
// ctx is treated as context.Background().
func (m *Model) Relax(ctx context.Context) *Solution {
	return &Solution{Result: mip.Relax(ctx, &mip.Problem{LP: m.lp, Integer: m.integer}, &mip.Options{Separators: m.seps, Pricers: m.prs})}
}
