package lp

import (
	"fmt"
	"math"
	"time"

	"tvnep/internal/linalg/sparselu"
)

// Nonbasic/basic variable statuses. Exported values appear in Basis
// snapshots; keep them stable.
const (
	vsLower int8 = iota // nonbasic at lower bound
	vsUpper             // nonbasic at upper bound
	vsFree              // nonbasic free variable, held at value 0
	vsBasic             // basic
)

const (
	pivTol     = 1e-9  // minimum pivot magnitude
	dropTol    = 1e-12 // entries below this are treated as zero in updates
	stallLimit = 400   // degenerate iterations before switching to Bland's rule

	// ratioTieTol is the window within which two ratio-test limits are
	// treated as tied (the larger-pivot rule then breaks the tie).
	ratioTieTol = 1e-10
	// blandTieTol is the much tighter tie window used under Bland's rule,
	// where ties must be broken by index to preserve the anti-cycling
	// guarantee.
	blandTieTol = 1e-12
	// degenStepTol is the step length below which an iteration counts as
	// degenerate for the stall detector.
	degenStepTol = 1e-12
	// flipSlopeTol is the dual-infeasibility slope below which the
	// long-step (bound-flipping) ratio test stops passing breakpoints: a
	// flip is only taken while the remaining primal violation of the
	// leaving row stays safely positive afterwards.
	flipSlopeTol = 1e-9
	// dseFloor keeps the dual steepest-edge weights away from zero; a
	// too-small weight would make one row's score explode on roundoff.
	dseFloor = 1e-4
)

// refactorEvery returns the number of eta-file updates tolerated before a
// scheduled refactorization. A sparse refactorization costs O(nnz·fill)
// while every eta lengthens all subsequent FTRAN/BTRAN solves, so the
// trade-off favors fairly frequent refactorization; larger bases still
// amortize it over proportionally more pivots.
func refactorEvery(m int) int {
	if n := m / 2; n > 120 {
		return n
	}
	return 120
}

// Instance is a solvable snapshot of a Problem with mutable column bounds.
// It caches the sparse column-wise matrix in equilibrated (scaled) form; the
// branch-and-bound solver mutates bounds between solves instead of
// rebuilding the problem. Bounds, objective, solutions and duals stay in the
// original units — the scaling is applied and removed inside the solver (see
// scaling.go). Instances are not safe for concurrent use.
type Instance struct {
	p *Problem
	n int // structural columns
	m int // rows

	colIdx [][]int32 // structural columns only; values are scaled
	colVal [][]float64

	// Rows added by AppendRow (cuts), row-wise: row baseRows+i is
	// extraIdx[i]/extraVal[i], stored scaled. The column-major matrix above
	// already contains their entries; this row view serves warm-basis
	// extension and the row-wise consumers (pivotRow, debug checks).
	baseRows int
	extraIdx [][]int32
	extraVal [][]float64

	// Columns added by AppendColumn (priced path columns), overlaid row-wise:
	// apRowIdx[i]/apRowVal[i] list the appended columns touching row i that
	// the row's own storage predates (values scaled). The column-major matrix
	// above already contains their entries; this overlay completes the row
	// view for the row-wise consumers. nil when no columns were appended.
	baseCols int
	apRowIdx [][]int32
	apRowVal [][]float64

	// Scaled row view of the compiled rows (indices shared with the
	// Problem); unused when the instance is unscaled.
	baseRowVal [][]float64

	// Storage a recompilation reuses (see Recompile): the backing
	// arrays the compiled columns and the scaled row view are carved from,
	// and the per-column entry counts.
	idxBack    []int32
	valBack    []float64
	rowValBack []float64
	colCount   []int32

	lb, ub []float64 // length n+m, original units: structural then row bounds
	objMin []float64 // minimization costs for structural columns (original)
	negate bool      // true if original sense was Maximize

	// Power-of-two equilibration scales (see scaling.go): the solver works
	// on A' = R·A·C with R = diag(rowScale), C = diag(colScale). All scales
	// are powers of two, so applying and removing them is exact and the
	// scaled solve stays bit-deterministic. scaled=false means identity.
	scaled      bool
	rowScale    []float64
	colScale    []float64
	colScaleInv []float64

	// sv is the instance's simplex workspace, reused across its solves. It
	// is allocated on the first solve and resized in place when AppendRow,
	// AppendColumn or Recompile change the dimensions. nil until the first
	// solve and after Recompile dropped it.
	sv *solver
	// spares is the storage the instance recycles across the problems
	// Recompile compiles into it (see recycle.go).
	spares spares
	// facWS is the factorization workspace of the instance's solves: the
	// kernels' scratch, the pool of LU bases no view holds, and the
	// captures handed back with Reuse. It lives as long as the instance, so
	// a search's captures and refactorizations recycle one another's
	// storage, and Recompile keeps it.
	facWS *sparselu.Workspace
}

// NewInstance compiles p into column-major form and equilibrates it.
func NewInstance(p *Problem) *Instance {
	inst := &Instance{}
	inst.compile(p)
	return inst
}

// compile fills inst with p compiled into column-major form and
// equilibrated, reusing inst's storage where its capacity allows and
// growing it with its room otherwise; inst is fresh or being recompiled.
//
//hot:path
func (inst *Instance) compile(p *Problem) {
	n, m := p.NumCols(), p.NumRows()
	inst.p, inst.n, inst.m = p, n, m
	inst.baseRows, inst.baseCols = m, n
	inst.negate = p.Sense == Maximize
	inst.extraIdx, inst.extraVal = inst.extraIdx[:0], inst.extraVal[:0]
	inst.apRowIdx, inst.apRowVal = nil, nil
	inst.scaled = false
	inst.lb, inst.ub = fitRoom(inst.lb, n+m, inst), fitRoom(inst.ub, n+m, inst)
	copy(inst.lb, p.ColLB)
	copy(inst.ub, p.ColUB)
	copy(inst.lb[n:], p.RowLB)
	copy(inst.ub[n:], p.RowUB)
	inst.objMin = fitRoom(inst.objMin, n, inst)
	for j, c := range p.Obj {
		if inst.negate {
			c = -c
		}
		inst.objMin[j] = c
	}
	// Transpose rows into columns, carved from one backing array per type.
	counts := fitRoom(inst.colCount, n, inst)
	inst.colCount = counts
	nnz := 0
	for i := 0; i < m; i++ {
		idx, _ := p.Row(i)
		for _, j := range idx {
			counts[j]++
		}
		nnz += len(idx)
	}
	inst.idxBack, inst.valBack = fitRoom(inst.idxBack, nnz, inst), fitRoom(inst.valBack, nnz, inst)
	inst.colIdx, inst.colVal = fitRoom(inst.colIdx, n, inst), fitRoom(inst.colVal, n, inst)
	off := int32(0)
	for j, c := range counts {
		inst.colIdx[j] = inst.idxBack[off : off : off+c]
		inst.colVal[j] = inst.valBack[off : off : off+c]
		off += c
	}
	for i := 0; i < m; i++ {
		idx, val := p.Row(i)
		for k, j := range idx {
			inst.colIdx[j] = append(inst.colIdx[j], int32(i)) //lint:allow hotalloc -- within the capacity counted above
			inst.colVal[j] = append(inst.colVal[j], val[k])   //lint:allow hotalloc -- within the capacity counted above
		}
	}
	inst.equilibrate()
}

// CaptureFactors sets res.Factors to a capture of the LU factorization
// matching res.Basis, where res is the result of the instance's latest
// Solve (no other Solve or Recompile may come in between): a hold on the
// solver's LU base, which no solve rewrites while the capture holds it,
// and a copy of its eta file (sparselu.Factors.CaptureInto). The capture
// goes into dst, reusing its storage, or, when dst is nil, into one handed
// back with Reuse or fresh storage. The caller may hand it to any
// instance's solve as Options.WarmFactors, any number of times, and hands
// it back with Reuse once no solve will adopt it again. res.Factors is set
// to nil, and dst left untouched, when res carries no basis.
func (inst *Instance) CaptureFactors(res *Result, dst *sparselu.Factors) {
	res.Factors = nil
	s := inst.sv
	if res.Basis == nil || s == nil || s.fac == nil || s.fac.M() != len(res.Basis.Basic) {
		return
	}
	res.Factors = inst.facWS.Capture(s.fac, dst)
}

// FarkasRay returns the Farkas ray of res, the result of the instance's
// latest Solve (no Solve, append or Recompile since), into dst, reusing its
// storage; nil unless res is StatusInfeasible. The dual simplex ends
// infeasible on a basic variable off its bound that no nonbasic column can
// move back, and the ray is that row of B⁻¹, unscaled and signed like
// Result.Duals: for Minimize, with d_j = −Σ_i y_i·A_ij, the minimum of
// Σ_j d_j·x_j + Σ_i y_i·s_i over the column box and the row bounds s_i is
// positive, though it vanishes wherever s = A·x (Maximize negates y, as it
// does the duals). So a column with objective 0 entering at 0 can make the
// LP feasible only if CandidateReducedCost(0, idx, val, y) improves.
func (inst *Instance) FarkasRay(res *Result, dst []float64) []float64 {
	s := inst.sv
	if res.Status != StatusInfeasible || s == nil || s.farkas == 0 || s.m != inst.m {
		return nil
	}
	dst = fitIn(dst, inst.m, inst.m)
	sign := s.farkas
	if inst.negate {
		sign = -sign
	}
	for _, i := range s.rhoNZ {
		dst[i] = sign * s.rho[i]
		if inst.scaled {
			dst[i] *= inst.rowScale[i] // y_i = r_i·y'_i, exact
		}
	}
	return dst
}

// NumCols reports the number of structural columns.
func (inst *Instance) NumCols() int { return inst.n }

// NumRows reports the number of rows.
func (inst *Instance) NumRows() int { return inst.m }

// SetColBounds overrides the bounds of structural column j.
func (inst *Instance) SetColBounds(j int, lb, ub float64) {
	if lb > ub {
		panic(fmt.Sprintf("lp: SetColBounds(%d) lb %v > ub %v", j, lb, ub))
	}
	inst.lb[j], inst.ub[j] = lb, ub
}

// ColBounds returns the current bounds of structural column j.
func (inst *Instance) ColBounds(j int) (lb, ub float64) { return inst.lb[j], inst.ub[j] }

// solver holds the simplex state for solves on one instance: the workspace.
// It is reused across the instance's solves and resized in place (with
// headroom) when the instance grows or is recompiled, so warm restarts,
// steady-state iterations and the solves of a stream of short-lived
// problems allocate no workspace.
type solver struct {
	inst *Instance
	m    int // rows
	N    int // structural + slack columns

	lb, ub  []float64 // length N, scaled units
	cost    []float64 // active phase costs, length N
	real    []float64 // phase-2 costs, length N
	vstat   []int8    // length N
	basis   []int32   // length m
	inBasis []int32   // length N, row position or -1

	fac *sparselu.Factors // sparse LU of the basis + eta updates: nil or &view
	xB  []float64         // basic variable values

	// view is the solver's factorization: a hold on an LU base of the
	// instance's pool, or on the one of the warm factors it adopted, and an
	// eta file of its own. Refactorizations build a new base and keep the
	// old one until they succeed; the base a capture holds is never
	// rewritten.
	view   sparselu.Factors
	refIdx [][]int32 // refactorization column headers, length m
	refVal [][]float64
	// unitIdx[i] = i, length m: the index storage of the slack columns.
	unitIdx []int32
	// extended is set by extendWarmStart once view holds the bordered
	// extension of the caller's WarmFactors; adoptBasis installs it.
	extended bool
	// extendWarmStart scratch: the extended basis, border rows in basis
	// positions, their diagonal, and the basic-column → position lookup
	// (-1-initialized).
	ext     Basis
	extIdx  [][]int32
	extVal  [][]float64
	extDiag []float64
	posOf   []int32

	// workspaces
	alpha []float64
	y     []float64
	rho   []float64
	work  []float64
	tau   []float64 // B⁻¹ρ for the dual steepest-edge update

	// Nonzero patterns of alpha, rho, tau and work, in ascending order as
	// the kernel returns them: each vector is zero outside its pattern, so
	// clearing and walking it costs its support instead of m. denseNZ is
	// the pattern buffer of the dense solves (xB, y). All five have
	// capacity m and share nzBuf's storage.
	alphaNZ []int32
	rhoNZ   []int32
	tauNZ   []int32
	workNZ  []int32
	denseNZ []int32
	nzBuf   []int32

	// Incrementally maintained reduced costs (see reduced.go).
	d       []float64
	arow    []float64
	arowNZ  []int32 // hyper-sparse index stack: columns touched by pivotRow
	arowTag []bool  // membership marks for arowNZ

	basisSeen []bool // adoptBasis duplicate-column check scratch, length N
	dValid    bool
	dFresh    bool // d recomputed from scratch since the last pivot
	xbFresh   bool // xB recomputed from scratch since the last pivot
	// yFresh: y solves Bᵀ·y = c_B for the current basis, factors and phase
	// costs (computeDuals skips its BTRAN while it holds). Cleared by
	// reset (every solve, so after fit and row or column appends too), a
	// pivot, a refactorization or adopted basis, and the switch from the
	// phase-1 to the real costs; a solve installs its first costs before
	// anything computes y.
	yFresh bool

	// Long-step (bound-flipping) dual ratio test scratch: a binary min-heap
	// of breakpoints keyed (ratio, column), the ratio-sorted drain of that
	// heap, and the flip list of the current iteration (see dual.go).
	bfRatio []float64
	bfJ     []int32
	bpRatio []float64
	bpJ     []int32
	flips   []int32

	// Pricing weights (see devex.go): devexW are primal Devex weights for
	// entering columns; dualW are dual steepest-edge weights β_i ≈ ‖B⁻ᵀe_i‖²
	// for leaving rows. priceCursor is the rotating start of the primal's
	// sectional candidate scan.
	devexW      []float64
	dualW       []float64
	priceCursor int

	// Candidate sets of the two pricing loops (see candidates.go): cand
	// over the N columns, current while dValid holds, and infeas over the m
	// rows, current while infeasOK holds.
	cand     bitset
	infeas   bitset
	infeasOK bool

	opts       Options
	iters      int
	boundFlips int // nonbasic bound flips taken by the long-step ratio test
	ratioPass  int // breakpoints passed (flipped through) in ratio tests
	bland      bool
	stall      int
	sincefac   int
	lastPivotQ int
	// farkas is the sign that makes s.rho the minimization Farkas ray
	// after the last dual run proved the LP infeasible, 0 otherwise (see
	// Instance.FarkasRay).
	farkas float64
}

// fixedCol reports whether column j is fixed (equal bounds) and can never
// leave its bound. Bounds are only ever equal by assignment (construction,
// branching), so the bit-exact comparison is deliberate.
func (s *solver) fixedCol(j int) bool {
	//lint:allow floateq -- equal bounds are assigned, never computed
	return s.lb[j] == s.ub[j]
}

// newSolver returns the instance's solver, reset for a fresh solve. The
// workspace is allocated on first use and refitted whenever it is new to
// the instance, Recompile compiled a new problem, or AppendRow or
// AppendColumn changed the dimensions; otherwise it is reused as is.
func newSolver(inst *Instance, opts Options) *solver {
	s := inst.sv
	if s == nil {
		s = &solver{}
		inst.sv = s
	}
	if inst.facWS == nil {
		inst.facWS = sparselu.NewWorkspace()
	}
	if s.inst != inst || s.m != inst.m || s.N != inst.n+inst.m {
		s.fit(inst)
	}
	s.reset(opts)
	return s
}

// fit sizes the workspace for inst and puts every slice in the state a
// fresh allocation would have: zeroed (so vstat reads vsLower, arowTag and
// basisSeen false) with posOf at -1. Storage is reused when its capacity
// allows and grown with headroom otherwise (see room), so an instance
// growing row by row or column by column does not reallocate at every
// append. Zeroing everything, not just what the next solve overwrites,
// keeps a recycled workspace's trajectory bit-identical to a fresh one's.
func (s *solver) fit(inst *Instance) {
	n, m := inst.n, inst.m
	N := n + m
	s.inst, s.m, s.N = inst, m, N
	rN, rm := s.room(inst)
	s.lb, s.ub = fitIn(s.lb, N, rN), fitIn(s.ub, N, rN)
	s.cost, s.real = fitIn(s.cost, N, rN), fitIn(s.real, N, rN)
	s.vstat, s.inBasis = fitIn(s.vstat, N, rN), fitIn(s.inBasis, N, rN)
	s.d, s.arow, s.arowTag = fitIn(s.d, N, rN), fitIn(s.arow, N, rN), fitIn(s.arowTag, N, rN)
	s.arowNZ = fitIn(s.arowNZ, N, rN)[:0]
	s.basisSeen, s.devexW = fitIn(s.basisSeen, N, rN), fitIn(s.devexW, N, rN)
	s.posOf = fitIn(s.posOf, N, rN)
	for j := range s.posOf {
		s.posOf[j] = -1
	}
	s.basis, s.xB = fitIn(s.basis, m, rm), fitIn(s.xB, m, rm)
	s.alpha, s.y, s.rho = fitIn(s.alpha, m, rm), fitIn(s.y, m, rm), fitIn(s.rho, m, rm)
	s.work, s.tau, s.dualW = fitIn(s.work, m, rm), fitIn(s.tau, m, rm), fitIn(s.dualW, m, rm)
	s.cand, s.infeas = fitIn(s.cand, words(N), words(rN)), fitIn(s.infeas, words(m), words(rm))
	s.nzBuf = fitIn(s.nzBuf, 5*m, 5*rm)
	s.alphaNZ = s.nzBuf[0:0:m]
	s.rhoNZ = s.nzBuf[m : m : 2*m]
	s.tauNZ = s.nzBuf[2*m : 2*m : 3*m]
	s.workNZ = s.nzBuf[3*m : 3*m : 4*m]
	s.denseNZ = s.nzBuf[4*m : 4*m : 5*m]
	s.refIdx, s.refVal = fitIn(s.refIdx, m, rm), fitIn(s.refVal, m, rm)
	s.unitIdx = fitIn(s.unitIdx, m, rm)
	for i := range s.unitIdx {
		s.unitIdx[i] = int32(i)
	}
}

// room returns the capacities the workspace's N- and m-sized slices grow
// to when they have to grow for inst (see Instance.room). On an instance
// that is never recompiled a first allocation gets no headroom, so
// instances that never grow pay nothing.
func (s *solver) room(inst *Instance) (rN, rm int) {
	N, m := inst.n+inst.m, inst.m
	if !inst.spares.on {
		if cap(s.lb) == 0 {
			return N, m
		}
		return N + N/4, m + m/4
	}
	return inst.room(N), inst.room(m)
}

// fit returns b resized to n zero values, reusing its storage when the
// capacity allows. Storage that has to grow gets a quarter of headroom;
// a first allocation is exact, so instances that never grow pay nothing.
func fit[T any](b []T, n int) []T {
	if cap(b) == 0 {
		return fitIn(b, n, n)
	}
	return fitIn(b, n, n+n/4)
}

// fitRoom is fitIn with the room inst gives storage of n entries (see
// Instance.room).
func fitRoom[T any](b []T, n int, inst *Instance) []T {
	return fitIn(b, n, inst.room(n))
}

// fitIn returns b resized to n zero values, reusing its storage when the
// capacity allows and growing it to capacity max(n, c) otherwise.
func fitIn[T any](b []T, n, c int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, c))
	}
	b = b[:n]
	clear(b)
	return b
}

// reset prepares the solver for a new solve under the instance's current
// bounds: scaled bounds and costs are (re)installed, all incremental state
// is invalidated, and the pricing weights return to their reference values.
func (s *solver) reset(opts Options) {
	inst := s.inst
	s.opts = opts
	s.iters = 0
	s.bland = false
	s.stall = 0
	s.sincefac = 0
	s.lastPivotQ = -1
	s.farkas = 0
	s.priceCursor = 0
	s.boundFlips = 0
	s.ratioPass = 0
	s.dValid, s.dFresh, s.xbFresh, s.yFresh, s.infeasOK = false, false, false, false, false
	s.fac = nil
	s.extended = false
	for j := range s.devexW {
		s.devexW[j] = 1
	}
	for i := range s.dualW {
		s.dualW[i] = 1
	}
	for j := range s.inBasis {
		s.inBasis[j] = -1
	}
	for j := range s.arow {
		s.arow[j] = 0
		s.arowTag[j] = false
	}
	s.arowNZ = s.arowNZ[:0]
	if inst.scaled {
		// x'_j = x_j/c_j and slack s'_i = r_i·s_i; the scales are powers of
		// two, so these transforms are exact (and map ±Inf to ±Inf).
		for j := 0; j < inst.n; j++ {
			ci := inst.colScaleInv[j]
			s.lb[j] = inst.lb[j] * ci
			s.ub[j] = inst.ub[j] * ci
			s.real[j] = inst.objMin[j] * inst.colScale[j]
		}
		for i := 0; i < s.m; i++ {
			r := inst.rowScale[i]
			s.lb[inst.n+i] = inst.lb[inst.n+i] * r
			s.ub[inst.n+i] = inst.ub[inst.n+i] * r
		}
	} else {
		copy(s.lb, inst.lb)
		copy(s.ub, inst.ub)
		copy(s.real[:inst.n], inst.objMin)
	}
	for j := inst.n; j < s.N; j++ {
		s.real[j] = 0
		s.cost[j] = 0
	}
}

// negUnitVal is the shared single-entry value slice of the slack unit
// columns (−1). Read-only; never mutate.
var negUnitVal = []float64{-1}

// col returns the sparse column j of the full matrix [A | −I]. The returned
// slices are shared storage; callers must not mutate or retain them across
// basis changes.
func (s *solver) col(j int) ([]int32, []float64) {
	if j < s.inst.n {
		return s.inst.colIdx[j], s.inst.colVal[j]
	}
	r := j - s.inst.n
	return s.unitIdx[r : r+1], negUnitVal
}

// colValue returns the current value of column j.
func (s *solver) colValue(j int) float64 {
	switch s.vstat[j] {
	case vsLower:
		return s.lb[j]
	case vsUpper:
		return s.ub[j]
	case vsFree:
		return 0
	default:
		return s.xB[s.inBasis[j]]
	}
}

// defaultStatus returns the natural nonbasic status for column j.
func (s *solver) defaultStatus(j int) int8 {
	lb, ub := s.lb[j], s.ub[j]
	switch {
	case !math.IsInf(lb, -1):
		return vsLower
	case !math.IsInf(ub, 1):
		return vsUpper
	default:
		return vsFree
	}
}

// ftran computes s.alpha ← B⁻¹·A_j and its pattern s.alphaNZ: the previous
// alpha is cleared over its pattern, the entering column scattered in, and
// the hyper-sparse forward solve runs from the column's rows.
func (s *solver) ftran(j int) {
	for _, i := range s.alphaNZ {
		s.alpha[i] = 0
	}
	idx, val := s.col(j)
	for k, r := range idx {
		s.alpha[r] += val[k]
	}
	s.alphaNZ = s.fac.Ftran(s.alpha, append(s.alphaNZ[:0], idx...))
}

// allRows fills nz's storage, which must have capacity m, with every index
// below m: the pattern of a dense right-hand side.
func allRows(nz []int32, m int) []int32 {
	nz = nz[:m]
	for i := range nz {
		nz[i] = int32(i)
	}
	return nz
}

// computeDuals fills s.y with the solution of Bᵀ·y = c_B for the active
// phase costs. While yFresh holds, s.y already is that solution, bit for
// bit (the same basis, factors and costs give the same BTRAN), so the
// solve is skipped: a solve's optimality check recomputes the reduced
// costs, and with them y, just before result reports the duals.
func (s *solver) computeDuals() {
	if s.yFresh {
		debugCheckDuals(s)
		return
	}
	for i := 0; i < s.m; i++ {
		s.y[i] = s.cost[s.basis[i]]
	}
	s.fac.Btran(s.y, allRows(s.denseNZ, s.m))
	s.yFresh = true
}

// reducedCost returns d_j = c_j − yᵀ·A_j using the currently computed duals.
func (s *solver) reducedCost(j int) float64 {
	d := s.cost[j]
	idx, val := s.col(j)
	for k, r := range idx {
		d -= s.y[r] * val[k]
	}
	return d
}

// btranRow fills s.rho with row r of B⁻¹, i.e. the solution of Bᵀ·ρ = e_r
// (a maximally sparse right-hand side for the backward solve), and s.rhoNZ
// with its pattern.
func (s *solver) btranRow(r int) {
	for _, i := range s.rhoNZ {
		s.rho[i] = 0
	}
	s.rho[r] = 1
	s.rhoNZ = s.fac.Btran(s.rho, append(s.rhoNZ[:0], int32(r)))
}

// computeXB recomputes the basic values from scratch:
// x_B = −B⁻¹·(Σ nonbasic A_j·value_j). infeas goes stale.
func (s *solver) computeXB() {
	for i := range s.xB {
		s.xB[i] = 0
	}
	for j := 0; j < s.N; j++ {
		if s.vstat[j] == vsBasic {
			continue
		}
		v := s.colValue(j)
		if v == 0 {
			continue
		}
		idx, val := s.col(j)
		for k, r := range idx {
			s.xB[r] -= val[k] * v
		}
	}
	s.fac.Ftran(s.xB, allRows(s.denseNZ, s.m))
	s.infeasOK = false
}

// refactor rebuilds the sparse LU factorization of the basis from scratch,
// discarding the eta file. Returns sparselu.ErrSingular if the basis matrix
// is singular; the previous factorization (if any) stays intact and active
// in that case.
func (s *solver) refactor() error {
	m := s.m
	for pos := 0; pos < m; pos++ {
		s.refIdx[pos], s.refVal[pos] = s.col(int(s.basis[pos]))
	}
	// A failure leaves the view, and so s.fac, as it was.
	if err := sparselu.FactorizeInto(&s.view, s.inst.facWS, m, s.refIdx, s.refVal); err != nil {
		return err
	}
	s.fac = &s.view
	s.sincefac = 0
	s.yFresh = false
	return nil
}

// updateFactors applies the pivot (entering column with ftran vector
// s.alpha, leaving row r) as an eta-file update.
func (s *solver) updateFactors(r int) {
	s.fac.Update(s.alpha, s.alphaNZ, r)
	s.sincefac++
}

// pivot makes column q basic in row r; s.alpha must hold its FTRAN'd
// column. enterVal is the new value of x_q and leaveStat the nonbasic status
// assigned to the leaving variable. The candidate sets are re-marked for
// both columns and for row r.
//
//hot:path
func (s *solver) pivot(q int, r int, enterVal float64, leaveStat int8) {
	leaving := int(s.basis[r])
	s.vstat[leaving] = leaveStat
	s.inBasis[leaving] = -1
	s.basis[r] = int32(q)
	s.inBasis[q] = int32(r)
	s.vstat[q] = vsBasic
	s.markCand(leaving)
	s.cand.put(q, false)
	s.updateFactors(r)
	s.xB[r] = enterVal
	s.markInfeas(r)
	s.lastPivotQ = q
	s.xbFresh = false
	s.yFresh = false
	if s.sincefac >= refactorEvery(s.m) || s.fac.EtaNNZ() >= sparselu.EtaBudget(s.m) {
		if err := s.refactor(); err == nil { //lint:allow hotalloc -- periodic refactorization is the amortized cold path
			s.computeXB()
			s.dValid = false // refresh reduced costs against numerical drift
		}
	}
}

// snapshot extracts a warm-startable basis (all N structural and slack
// columns, so a later solver of the same instance can adopt it).
func (s *solver) snapshot() *Basis {
	b := s.inst.basis(s.m, s.N)
	copy(b.Basic, s.basis)
	copy(b.Status, s.vstat)
	return b
}

// adoptBasis installs a snapshot, refactorizes (or adopts the handed-off
// factors) and recomputes basic values.
func (s *solver) adoptBasis(b *Basis) bool {
	if b == nil || len(b.Basic) != s.m || len(b.Status) != s.N {
		return false
	}
	okBasis := true
	for _, j := range b.Basic {
		if int(j) < 0 || int(j) >= s.N || s.basisSeen[j] {
			okBasis = false
			break
		}
		s.basisSeen[j] = true
	}
	for _, j := range b.Basic {
		if int(j) >= 0 && int(j) < s.N {
			s.basisSeen[j] = false
		}
	}
	if !okBasis {
		return false
	}
	copy(s.basis, b.Basic)
	copy(s.vstat, b.Status)
	s.yFresh = false
	for j := range s.inBasis {
		s.inBasis[j] = -1
	}
	for pos, j := range s.basis {
		s.inBasis[j] = int32(pos)
		s.vstat[j] = vsBasic
	}
	adopted := false
	if s.extended {
		// extendWarmStart already built the bordered extension in the
		// view; install it directly.
		s.fac = &s.view
		s.extended = false
		adopted = true
	} else if wf := s.opts.WarmFactors; wf != nil && wf.M() == s.m {
		// Explicit factor handoff (Result.Factors of the solve that produced
		// b). The view shares its LU base and copies its eta file, so this
		// solver's pivots stay out of the capture, which siblings share; the
		// copy reuses the view's storage, so steady-state handoffs do not
		// allocate.
		wf.ShareInto(&s.view, s.inst.facWS)
		s.fac = &s.view
		adopted = true
		DebugFactorHandoffs.Add(1)
	}
	// Repair nonbasic statuses that reference bounds which no longer exist
	// (possible after branching tightened/removed a bound).
	for j := 0; j < s.N; j++ {
		if s.vstat[j] == vsBasic {
			continue
		}
		switch s.vstat[j] {
		case vsLower:
			if math.IsInf(s.lb[j], -1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		case vsUpper:
			if math.IsInf(s.ub[j], 1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		case vsFree:
			if !math.IsInf(s.lb[j], -1) || !math.IsInf(s.ub[j], 1) {
				s.vstat[j] = s.defaultStatus(j)
			}
		}
	}
	if !adopted {
		if err := s.refactor(); err != nil {
			return false
		}
	}
	s.computeXB()
	return true
}

// interrupted reports whether the solve should stop: its deadline has
// passed or its context has been cancelled.
func (s *solver) interrupted() bool {
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) { //lint:allow nondet -- deadline enforcement is deliberate wall-clock dependence
		return true
	}
	if ctx := s.opts.Context; ctx != nil && ctx.Err() != nil {
		return true
	}
	return false
}

// primalInfeasibility returns the largest bound violation among basic
// variables.
func (s *solver) primalInfeasibility() float64 {
	worst := 0.0
	for i := 0; i < s.m; i++ {
		if v, _ := s.rowViol(i); v > worst {
			worst = v
		}
	}
	return worst
}
