package lp

import (
	"math"

	"tvnep/internal/numtol"
)

// LP presolve: cheap reductions applied by Solve before the simplex runs,
// with a postsolve that maps the reduced solution — values, row duals and
// basis — back to the original problem. The passes iterate to a fixpoint:
//
//   - empty rows are checked for feasibility and dropped (dual 0);
//   - singleton rows are turned into column-bound tightenings and dropped
//     (their duals are recovered in reverse elimination order);
//   - fixed columns (lb = ub, originally or after tightening) are
//     substituted into the row bounds and dropped;
//   - empty columns are fixed at their objective-favored bound and dropped
//     (kept when that bound is infinite, so the simplex can certify
//     unboundedness only after feasibility is established);
//   - redundant rows — whose activity range over the column bounds cannot
//     leave the row bounds — are dropped (dual 0).
//
// The MIP solver re-solves Instances in place under branching bound changes
// and therefore bypasses this layer entirely (it calls Instance.Solve);
// presolve applies only to Solve(p, opts) calls without a warm basis.

const (
	// presolveFeasTol is the infeasibility tolerance of presolve decisions
	// (empty-row violation, crossed bounds after tightening). It equals
	// the solver's default primal feasibility tolerance so presolve never
	// declares infeasible what the simplex would accept.
	presolveFeasTol = numtol.LPFeasTol
	// presolveFixTol treats a column whose bounds are this close as fixed.
	presolveFixTol = 1e-11
	// presolvePivTol is the minimum singleton-row coefficient magnitude
	// eliminated; smaller pivots stay in the problem for the simplex's own
	// tolerance handling.
	presolvePivTol = 1e-7
)

// singletonRec records one eliminated singleton row for dual recovery.
type singletonRec struct {
	row int
	col int
	a   float64
}

// presolved holds the reductions applied to a Problem.
type presolved struct {
	orig *Problem
	red  *Problem

	colPos []int32   // orig col → reduced col, or -1 when removed
	colMap []int32   // reduced col → orig col
	fixVal []float64 // orig col → substituted value (valid when colPos < 0)
	rowPos []int32   // orig row → reduced row, or -1 when removed
	rowMap []int32   // reduced row → orig row

	singletons []singletonRec

	// Original column → row adjacency, built lazily for dual recovery.
	adjRows [][]int32
	adjVals [][]float64

	infeasible bool
}

// presolve applies the reduction passes to p. It returns nil when no
// reduction fires, so irreducible problems take the direct solve path
// unchanged.
func presolve(p *Problem) *presolved {
	n, m := p.NumCols(), p.NumRows()
	ps := &presolved{
		orig:   p,
		colPos: make([]int32, n),
		fixVal: make([]float64, n),
		rowPos: make([]int32, m),
	}
	lo := append([]float64(nil), p.ColLB...)
	hi := append([]float64(nil), p.ColUB...)
	rlb := append([]float64(nil), p.RowLB...)
	rub := append([]float64(nil), p.RowUB...)
	removedCol := make([]bool, n)
	removedRow := make([]bool, m)

	// Column → row adjacency and live-entry counts. Counted two-pass build
	// into shared backing arrays: this runs on every cold Solve, so the
	// per-entry append pattern would dominate the solver's allocation count.
	rowCount := make([]int, m)
	colCount := make([]int, n)
	nnz := 0
	for i := 0; i < m; i++ {
		idx, _ := p.Row(i)
		rowCount[i] = len(idx)
		nnz += len(idx)
		for _, j := range idx {
			colCount[j]++
		}
	}
	colRows := make([][]int32, n)
	colVals := make([][]float64, n)
	rowsBack := make([]int32, nnz)
	valsBack := make([]float64, nnz)
	off := 0
	for j := 0; j < n; j++ {
		colRows[j] = rowsBack[off : off : off+colCount[j]]
		colVals[j] = valsBack[off : off : off+colCount[j]]
		off += colCount[j]
	}
	for i := 0; i < m; i++ {
		idx, val := p.Row(i)
		for k, j := range idx {
			colRows[j] = append(colRows[j], int32(i))
			colVals[j] = append(colVals[j], val[k])
		}
	}
	ps.adjRows, ps.adjVals = colRows, colVals // reused by dual recovery

	dropRow := func(i int) {
		removedRow[i] = true
		idx, _ := p.Row(i)
		for _, j := range idx {
			if !removedCol[j] {
				colCount[j]--
			}
		}
	}
	fixCol := func(j int, v float64) {
		removedCol[j] = true
		ps.fixVal[j] = v
		for k, i := range colRows[j] {
			if removedRow[i] {
				continue
			}
			a := colVals[j][k]
			if !math.IsInf(rlb[i], -1) {
				rlb[i] -= a * v
			}
			if !math.IsInf(rub[i], 1) {
				rub[i] -= a * v
			}
			rowCount[i]--
		}
	}

	// Objective coefficients in minimization convention, for choosing the
	// favored bound of empty columns.
	cmin := make([]float64, n)
	for j := 0; j < n; j++ {
		cmin[j] = p.Obj[j]
		if p.Sense == Maximize {
			cmin[j] = -cmin[j]
		}
	}

	anything := false
	for pass := 0; pass < 20; pass++ {
		changed := false

		// Empty and singleton rows.
		for i := 0; i < m; i++ {
			if removedRow[i] {
				continue
			}
			switch rowCount[i] {
			case 0:
				if rlb[i] > presolveFeasTol || rub[i] < -presolveFeasTol {
					ps.infeasible = true
					return ps
				}
				dropRow(i)
				changed = true
			case 1:
				// Find the surviving entry.
				idx, val := p.Row(i)
				j, a := -1, 0.0
				for k, jj := range idx {
					if !removedCol[jj] {
						j, a = int(jj), val[k]
						break
					}
				}
				if math.Abs(a) < presolvePivTol {
					continue
				}
				implLo, implHi := rlb[i]/a, rub[i]/a
				if a < 0 {
					implLo, implHi = implHi, implLo
				}
				if implLo > lo[j] {
					lo[j] = implLo
				}
				if implHi < hi[j] {
					hi[j] = implHi
				}
				if lo[j] > hi[j]+presolveFeasTol {
					ps.infeasible = true
					return ps
				}
				if lo[j] > hi[j] {
					lo[j] = hi[j] // crossed within tolerance: snap
				}
				ps.singletons = append(ps.singletons, singletonRec{row: i, col: j, a: a})
				dropRow(i)
				changed = true
			}
		}

		// Fixed and empty columns.
		for j := 0; j < n; j++ {
			if removedCol[j] {
				continue
			}
			if hi[j]-lo[j] <= presolveFixTol && !math.IsInf(lo[j], 0) {
				fixCol(j, lo[j])
				changed = true
				continue
			}
			if colCount[j] == 0 {
				var v float64
				switch {
				case cmin[j] > 0:
					v = lo[j]
				case cmin[j] < 0:
					v = hi[j]
				case !math.IsInf(lo[j], -1):
					v = lo[j]
				case !math.IsInf(hi[j], 1):
					v = hi[j]
				default:
					v = 0
				}
				if math.IsInf(v, 0) {
					// Unbounded favored direction: keep the column so the
					// simplex proves feasibility before unboundedness.
					continue
				}
				fixCol(j, v)
				changed = true
			}
		}

		// Redundant rows: activity range within the row bounds.
		for i := 0; i < m; i++ {
			if removedRow[i] || rowCount[i] == 0 {
				continue
			}
			idx, val := p.Row(i)
			actMin, actMax := 0.0, 0.0
			for k, j := range idx {
				if removedCol[j] {
					continue
				}
				if a := val[k]; a > 0 {
					actMin += a * lo[j]
					actMax += a * hi[j]
				} else {
					actMin += a * hi[j]
					actMax += a * lo[j]
				}
			}
			if actMin >= rlb[i]-presolveFeasTol && actMax <= rub[i]+presolveFeasTol {
				dropRow(i)
				changed = true
			}
		}

		if !changed {
			break
		}
		anything = true
	}
	if !anything {
		return nil
	}

	// Assemble the reduced problem over the survivors. Survivor counts are
	// known up front, so every slice is reserved exactly once: the append
	// doubling this loop otherwise pays shows up directly in cold-Solve GC.
	keptCols, keptRows := 0, 0
	for j := 0; j < n; j++ {
		if !removedCol[j] {
			keptCols++
		}
	}
	for i := 0; i < m; i++ {
		if !removedRow[i] {
			keptRows++
		}
	}
	red := NewProblem()
	red.Sense = p.Sense
	red.ObjOffset = p.ObjOffset
	red.Obj = make([]float64, 0, keptCols)
	red.ColLB = make([]float64, 0, keptCols)
	red.ColUB = make([]float64, 0, keptCols)
	red.rowEnd = make([]int32, 0, keptRows)
	red.RowLB = make([]float64, 0, keptRows)
	red.RowUB = make([]float64, 0, keptRows)
	ps.colMap = make([]int32, 0, n)
	for j := 0; j < n; j++ {
		if removedCol[j] {
			ps.colPos[j] = -1
			// Contribution of the substituted column, in the original sense
			// (ObjOffset is applied before the minimize/maximize negation).
			red.ObjOffset += p.Obj[j] * ps.fixVal[j]
			continue
		}
		ps.colPos[j] = int32(red.AddCol(p.Obj[j], lo[j], hi[j]))
		ps.colMap = append(ps.colMap, int32(j))
	}
	ps.rowMap = make([]int32, 0, m)
	// Counted two-pass build, mirroring the adjacency build above: the
	// row storage is sized once instead of growing on every cold Solve.
	keptNNZ := 0
	for i := 0; i < m; i++ {
		if removedRow[i] {
			continue
		}
		idx, _ := p.Row(i)
		for _, j := range idx {
			if !removedCol[j] {
				keptNNZ++
			}
		}
	}
	red.rowIdx = make([]int32, 0, keptNNZ)
	red.rowVal = make([]float64, 0, keptNNZ)
	for i := 0; i < m; i++ {
		if removedRow[i] {
			ps.rowPos[i] = -1
			continue
		}
		idx, val := p.Row(i)
		// Append the filtered row directly: the source row is already
		// deduplicated and in range, so AddRow's merging is dead weight on
		// this hot path (one assembly per cold Solve).
		for k, j := range idx {
			if !removedCol[j] {
				red.rowIdx = append(red.rowIdx, ps.colPos[j])
				red.rowVal = append(red.rowVal, val[k])
			}
		}
		ps.rowPos[i] = int32(red.NumRows())
		red.endRow(len(red.rowIdx))
		red.RowLB = append(red.RowLB, rlb[i])
		red.RowUB = append(red.RowUB, rub[i])
		ps.rowMap = append(ps.rowMap, int32(i))
	}
	ps.red = red
	return ps
}

// solve optimizes the reduced problem and postsolves the outcome.
func (ps *presolved) solve(opts *Options) Result {
	if ps.infeasible {
		return Result{Status: StatusInfeasible}
	}
	if ps.red.NumCols() == 0 && ps.red.NumRows() == 0 {
		// Fully solved by presolve; the empty basis lifts to all-slack-basic.
		return ps.postsolve(Result{Status: StatusOptimal, Obj: ps.red.ObjOffset, Basis: &Basis{}})
	}
	return ps.postsolve(Solve(ps.red, opts))
}

// postsolve maps a Result of the reduced problem back to the original.
func (ps *presolved) postsolve(rres Result) Result {
	p := ps.orig
	n, m := p.NumCols(), p.NumRows()
	res := Result{Status: rres.Status, Obj: rres.Obj, Iterations: rres.Iterations}
	if rres.Status != StatusOptimal {
		return res
	}

	// Primal values: survivors from the reduced solution, the rest from
	// their substituted values.
	res.X = make([]float64, n)
	for j := 0; j < n; j++ {
		if ps.colPos[j] >= 0 {
			res.X[j] = rres.X[ps.colPos[j]]
		} else {
			res.X[j] = ps.fixVal[j]
		}
	}

	// Row duals, in minimization convention while reconstructing: kept rows
	// from the reduced solve, dropped empty/redundant rows 0, singleton rows
	// by reverse elimination replay.
	y := make([]float64, m)
	for k, i := range ps.rowMap {
		y[i] = rres.Duals[k]
		if p.Sense == Maximize {
			y[i] = -y[i]
		}
	}
	ps.recoverSingletonDuals(y, res.X)
	res.Duals = y
	if p.Sense == Maximize {
		for i := range res.Duals {
			res.Duals[i] = -res.Duals[i]
		}
	}

	res.Basis = ps.postsolveBasis(rres.Basis)
	return res
}

// recoverSingletonDuals assigns duals to the eliminated singleton rows so
// the full-problem KKT conditions hold: replaying eliminations in reverse,
// each row absorbs its column's residual reduced cost whenever the column
// sits away from an original bound that would justify it — but only when
// the resulting dual sign is consistent with the row's activity (otherwise
// an earlier eliminated row on the same column absorbs the residual).
func (ps *presolved) recoverSingletonDuals(y, x []float64) {
	p := ps.orig
	const tol = numtol.DualRoundTol
	for t := len(ps.singletons) - 1; t >= 0; t-- {
		rec := ps.singletons[t]
		j := rec.col
		// Residual reduced cost of the column (minimization convention).
		d := p.Obj[j]
		if p.Sense == Maximize {
			d = -d
		}
		for k, i := range ps.colRowsOf(j) {
			d -= y[i] * ps.colValsOf(j)[k]
		}
		atLB := math.Abs(x[j]-p.ColLB[j]) < numtol.AtBoundTol
		atUB := math.Abs(x[j]-p.ColUB[j]) < numtol.AtBoundTol
		ok := (atLB && atUB) ||
			(atLB && d >= -tol) ||
			(atUB && d <= tol) ||
			math.Abs(d) <= tol
		if ok {
			continue
		}
		yi := d / rec.a
		// Row-dual sign check against the row's activity position.
		idx, val := p.Row(rec.row)
		act := 0.0
		for k, jj := range idx {
			act += val[k] * x[jj]
		}
		rAtLB := math.Abs(act-p.RowLB[rec.row]) < numtol.AtBoundTol
		rAtUB := math.Abs(act-p.RowUB[rec.row]) < numtol.AtBoundTol
		switch {
		case rAtLB && rAtUB:
		case rAtLB:
			if yi < -tol {
				continue
			}
		case rAtUB:
			if yi > tol {
				continue
			}
		default:
			continue
		}
		y[rec.row] = yi
	}
}

// colRowsOf / colValsOf lazily build the original column → row adjacency
// used by dual recovery.
func (ps *presolved) colRowsOf(j int) []int32 {
	ps.ensureAdjacency()
	return ps.adjRows[j]
}

func (ps *presolved) colValsOf(j int) []float64 {
	ps.ensureAdjacency()
	return ps.adjVals[j]
}

func (ps *presolved) ensureAdjacency() {
	if ps.adjRows != nil {
		return
	}
	p := ps.orig
	ps.adjRows = make([][]int32, p.NumCols())
	ps.adjVals = make([][]float64, p.NumCols())
	for i := 0; i < p.NumRows(); i++ {
		idx, val := p.Row(i)
		for k, j := range idx {
			ps.adjRows[j] = append(ps.adjRows[j], int32(i))
			ps.adjVals[j] = append(ps.adjVals[j], val[k])
		}
	}
}

// postsolveBasis lifts the reduced basis to the full problem: kept rows keep
// their (remapped) basic columns, dropped rows take their own slack basic,
// dropped columns go nonbasic at the bound nearest their substituted value.
// The lifted basis matrix is block-triangular with the reduced basis and an
// identity over the dropped rows' slacks, so it stays nonsingular and usable
// for warm starts.
func (ps *presolved) postsolveBasis(rb *Basis) *Basis {
	if rb == nil {
		return nil
	}
	p := ps.orig
	n, m := p.NumCols(), p.NumRows()
	nRed, mRed := ps.red.NumCols(), ps.red.NumRows()
	if len(rb.Basic) != mRed || len(rb.Status) != nRed+2*mRed {
		return nil
	}
	liftCol := func(jr int32) int32 {
		switch {
		case int(jr) < nRed: // structural
			return ps.colMap[jr]
		case int(jr) < nRed+mRed: // slack
			return int32(n) + ps.rowMap[int(jr)-nRed]
		default: // artificial
			return int32(n+m) + ps.rowMap[int(jr)-nRed-mRed]
		}
	}
	b := &Basis{Basic: make([]int32, m), Status: make([]int8, n+2*m)}
	for i := 0; i < m; i++ {
		if ps.rowPos[i] >= 0 {
			b.Basic[i] = liftCol(rb.Basic[ps.rowPos[i]])
		} else {
			b.Basic[i] = int32(n + i) // dropped row: own slack basic
			b.Status[n+i] = vsBasic
		}
	}
	for j := 0; j < n; j++ {
		if ps.colPos[j] >= 0 {
			b.Status[j] = rb.Status[ps.colPos[j]]
			continue
		}
		v := ps.fixVal[j]
		switch {
		case math.Abs(v-p.ColLB[j]) < numtol.BoundSnapTol || math.IsInf(p.ColUB[j], 1):
			b.Status[j] = vsLower
		case !math.IsInf(p.ColUB[j], 1):
			b.Status[j] = vsUpper
		default:
			b.Status[j] = vsFree
		}
	}
	for k, i := range ps.rowMap {
		b.Status[n+int(i)] = rb.Status[nRed+k]
		b.Status[n+m+int(i)] = rb.Status[nRed+mRed+k]
	}
	return b
}
