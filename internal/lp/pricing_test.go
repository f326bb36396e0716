package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tvnep/internal/numtol"
)

// refPriceEntering is primal pricing as a full scan of the ring of N
// columns followed by m empty positions: the sectional partial pricing that
// priceEntering reproduces from the candidate set. Kept as the reference its
// choices are held to.
func refPriceEntering(s *solver) (int, float64) {
	tol := numtol.LPOptTol
	if s.bland {
		for j := 0; j < s.N; j++ {
			st := s.vstat[j]
			if st == vsBasic || s.fixedCol(j) {
				continue // fixed columns can never move
			}
			d := s.d[j]
			var viol float64
			switch st {
			case vsLower:
				viol = -d
			case vsUpper:
				viol = d
			case vsFree:
				viol = math.Abs(d)
			}
			if viol > tol {
				return j, d // Bland: first eligible index
			}
		}
		return -1, 0
	}
	ring := s.N + s.m
	section := ring / 8
	if section < priceSectionMin {
		section = priceSectionMin
	}
	j := s.priceCursor
	if j >= ring {
		j = 0
	}
	best, bestScore := -1, 0.0
	for scanned := 0; scanned < ring; {
		end := scanned + section
		if end > ring {
			end = ring
		}
		for ; scanned < end; scanned++ {
			jj := j
			if j++; j == ring {
				j = 0
			}
			if jj >= s.N {
				continue // an empty position
			}
			st := s.vstat[jj]
			if st == vsBasic || s.fixedCol(jj) {
				continue
			}
			d := s.d[jj]
			var viol float64
			switch st {
			case vsLower:
				viol = -d
			case vsUpper:
				viol = d
			case vsFree:
				viol = math.Abs(d)
			}
			if viol <= tol {
				continue
			}
			if score := viol * viol / s.devexW[jj]; score > bestScore {
				best, bestScore = jj, score
			}
		}
		if best != -1 {
			s.priceCursor = j
			return best, s.d[best]
		}
	}
	return -1, 0
}

// refLeavingRow is the dual's leaving-row choice as a full scan of all m
// basic values: the reference leavingRow's walk over infeas is held to.
func refLeavingRow(s *solver) (r int, viol float64, below bool) {
	feas := numtol.LPFeasTol
	r, bestScore := -1, 0.0
	for i := 0; i < s.m; i++ {
		j := s.basis[i]
		v, isBelow := s.lb[j]-s.xB[i], true
		if v2 := s.xB[i] - s.ub[j]; v2 > v {
			v, isBelow = v2, false
		}
		if v <= feas {
			continue
		}
		score := v
		if !s.bland {
			score = v * v / s.dualW[i]
		}
		if score > bestScore {
			r, bestScore, viol, below = i, score, v, isBelow
		}
	}
	return r, viol, below
}

// sameFloat compares bit patterns, so NaNs match and ±0 do not.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkEntering holds priceEntering to refPriceEntering on the current
// state: the same column, reduced cost and next cursor. It leaves the
// cursor where it found it.
func checkEntering(t testing.TB, s *solver, where string) int {
	t.Helper()
	c0 := s.priceCursor
	wantQ, wantD := refPriceEntering(s)
	wantC := s.priceCursor
	s.priceCursor = c0
	q, d := s.priceEntering()
	if q != wantQ || !sameFloat(d, wantD) || s.priceCursor != wantC {
		t.Fatalf("%s: iteration %d (bland %v, cursor %d, N %d): priceEntering = (%d, %v, cursor %d), full scan = (%d, %v, cursor %d)",
			where, s.iters, s.bland, c0, s.N, q, d, s.priceCursor, wantQ, wantD, wantC)
	}
	s.priceCursor = c0
	return q
}

// checkLeaving holds leavingRow to refLeavingRow on the current state.
func checkLeaving(t testing.TB, s *solver, where string) {
	t.Helper()
	wr, wv, wb := refLeavingRow(s)
	r, v, b := s.leavingRow()
	if r != wr || !sameFloat(v, wv) || b != wb {
		t.Fatalf("%s: iteration %d (bland %v): leavingRow = (%d, %v, %v), full scan = (%d, %v, %v)",
			where, s.iters, s.bland, r, v, b, wr, wv, wb)
	}
}

// pricingRun steps a solve one simplex iteration at a time (primal and dual
// run exactly one loop body when their budget is s.iters+1) and, before
// every iteration, holds the set-driven choice to the full scan. After every
// iteration it checks that the sets equal a fresh evaluation of their
// definitions. Stepping does not change the trajectory: the state between
// loop bodies is the state the uninterrupted loop carries.
type pricingRun struct {
	t     testing.TB
	where string
	// blandEvery, when positive, switches Bland's rule on before every
	// blandEvery-th iteration, as a long stall would.
	blandEvery int
	// maxIters, when positive, caps the iterations below the solve's own
	// budget.
	maxIters int

	choices, blandChoices, wraps   int
	primalFlips, refactors, dualIt int
}

func (pr *pricingRun) prepare(s *solver) {
	if !s.dValid {
		s.recomputeReducedCosts() // what the loop body does first
	}
	if pr.blandEvery > 0 && s.iters%pr.blandEvery == pr.blandEvery-1 {
		s.bland = true
	}
	if s.bland {
		pr.blandChoices++
	}
	pr.choices++
}

func (pr *pricingRun) stale(s *solver) {
	pr.t.Helper()
	if err := s.staleCandidates(); err != nil {
		pr.t.Fatalf("%s: after iteration %d: %v", pr.where, s.iters, err)
	}
}

func (pr *pricingRun) primal(s *solver, maxIters int) iterStatus {
	pr.t.Helper()
	if pr.maxIters > 0 {
		maxIters = min(maxIters, pr.maxIters)
	}
	for s.iters < maxIters {
		pr.prepare(s)
		c0 := s.priceCursor
		q := checkEntering(pr.t, s, pr.where)
		ring := s.N + s.m
		if section := max(ring/8, priceSectionMin); q >= 0 && !s.bland && section < ring && c0 < ring && c0+section > ring {
			pr.wraps++ // the first section straddles the wrap at the ring's end
		}
		var st0 int8
		if q >= 0 {
			st0 = s.vstat[q]
		}
		fac0 := s.sincefac
		st := s.primal(s.iters + 1)
		if q >= 0 && s.vstat[q] != vsBasic && s.vstat[q] != st0 {
			pr.primalFlips++
		}
		if s.sincefac < fac0 {
			pr.refactors++
		}
		pr.stale(s)
		if st != iterLimit {
			return st
		}
	}
	return iterLimit
}

func (pr *pricingRun) dual(s *solver, maxIters int) iterStatus {
	pr.t.Helper()
	if pr.maxIters > 0 {
		maxIters = min(maxIters, pr.maxIters)
	}
	for s.iters < maxIters {
		pr.prepare(s)
		if !s.infeasOK {
			s.rebuildInfeas() // what the loop body does before choosing
		}
		checkLeaving(pr.t, s, pr.where)
		fac0 := s.sincefac
		st := s.dual(s.iters + 1)
		if s.sincefac < fac0 {
			pr.refactors++
		}
		pr.dualIt++
		pr.stale(s)
		if st != iterLimit {
			return st
		}
	}
	return iterLimit
}

// cold mirrors solveCold's main path on inst: a dual phase 1 from the
// all-slack basis, then the primal. It returns the solver and the final
// primal status.
func (pr *pricingRun) cold(inst *Instance) (*solver, iterStatus) {
	pr.t.Helper()
	s := newSolver(inst, Options{})
	if err := s.crashSlackBasis(); err != nil {
		pr.t.Fatalf("%s: crash basis: %v", pr.where, err)
	}
	s.dValid, s.xbFresh = false, true
	if st := pr.dual(s, inst.iterBudget()); st != iterOptimal {
		return s, st
	}
	copy(s.cost, s.real)
	s.dValid = false
	return s, pr.primal(s, inst.iterBudget())
}

// warm mirrors solveWarm on inst from res's basis and factors, including
// the AppendColumn remap and the AppendRow extension.
func (pr *pricingRun) warm(inst *Instance, res *Result) (*solver, iterStatus) {
	pr.t.Helper()
	o := Options{WarmBasis: res.Basis, WarmFactors: res.Factors}
	s := newSolver(inst, o)
	copy(s.cost, s.real)
	wb := o.WarmBasis
	nOld := len(wb.Status) - len(wb.Basic)
	if nOld != inst.n {
		wb = inst.extendWarmStartCols(wb, nOld)
	}
	if len(wb.Basic) < s.m {
		if wb = s.extendWarmStart(wb, o.WarmFactors); wb == nil {
			pr.t.Fatalf("%s: extendWarmStart failed", pr.where)
		}
		s.opts.WarmFactors = nil
	}
	if !s.adoptBasis(wb) {
		pr.t.Fatalf("%s: adoptBasis failed", pr.where)
	}
	if nOld != inst.n && !s.appendedColsDualFeasible(nOld) {
		s.dValid = false
		return s, pr.primal(s, inst.iterBudget())
	}
	st := pr.dual(s, inst.iterBudget())
	if st == iterOptimal {
		st = pr.primal(s, inst.iterBudget())
	}
	return s, st
}

// buildSparseLP is buildRandomLP with about perRow entries per row, so
// problems with thousands of columns stay cheap to factorize.
func buildSparseLP(rng *rand.Rand, n, m, perRow int) (*Problem, []float64) {
	p := NewProblem()
	xstar := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := rng.Float64()*4 - 2
		hi := lo + rng.Float64()*5
		xstar[j] = lo + rng.Float64()*(hi-lo)
		p.AddCol(rng.NormFloat64(), lo, hi)
	}
	for i := 0; i < m; i++ {
		var idx []int32
		var val []float64
		act := 0.0
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			v := rng.NormFloat64()
			idx = append(idx, int32(j))
			val = append(val, v)
			act += v * xstar[j]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddLE(idx, val, act+rng.Float64()*2)
		case 1:
			p.AddGE(idx, val, act-rng.Float64()*2)
		default:
			p.AddRow(idx, val, act-rng.Float64(), act+rng.Float64())
		}
	}
	return p, xstar
}

// TestPricingMatchesFullScan holds both set-driven choices to the full
// scans at every iteration of stepped solves: cold solves with N below one
// section, around three sections and above eight (where sections straddle
// the wrap at N), runs with Bland's rule switched on, and warm restarts
// after AppendRow and AppendColumn. Every stepped solve must also take the
// iterations and reach the objective of the real Solve on a twin instance
// compiled from the same problem and given the same appends.
func TestPricingMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	total := pricingRun{}
	add := func(pr *pricingRun) {
		total.choices += pr.choices
		total.blandChoices += pr.blandChoices
		total.wraps += pr.wraps
		total.primalFlips += pr.primalFlips
		total.refactors += pr.refactors
		total.dualIt += pr.dualIt
	}
	cases := []struct {
		name       string
		n, m, per  int
		blandEvery int
	}{
		{"N<384", 60, 40, 6, 0},
		{"N<384/bland", 60, 40, 6, 4},
		{"N~3x384", 700, 227, 6, 0},
		{"N~3x384/bland", 700, 227, 6, 7},
		{"N>8x384", 2201, 500, 5, 0}, // N = 3201: a one-column ninth section
	}
	for _, c := range cases {
		for trial := 0; trial < 3; trial++ {
			p, xstar := buildSparseLP(rng, c.n, c.m, c.per)
			inst, twin := NewInstance(p), NewInstance(p)
			want := twin.Solve(nil)
			pr := &pricingRun{t: t, where: c.name + "/cold", blandEvery: c.blandEvery}
			s, st := pr.cold(inst)
			if c.blandEvery > 0 && st != iterOptimal {
				// Forced Bland pivots may be numerically weak; the real
				// solve would fall back. The choices were still checked.
				add(pr)
				continue
			}
			if st != iterOptimal || want.Status != StatusOptimal {
				t.Fatalf("%s trial %d: stepped status %v, Solve status %v", c.name, trial, st, want.Status)
			}
			res := s.result(StatusOptimal)
			if c.blandEvery == 0 && (res.Iterations != want.Iterations || math.Abs(res.Obj-want.Obj) > 1e-7*(1+math.Abs(want.Obj))) {
				t.Fatalf("%s trial %d: stepped solve took %d iterations to %v, Solve %d to %v",
					c.name, trial, res.Iterations, res.Obj, want.Iterations, want.Obj)
			}
			add(pr)
			if trial > 0 || c.n > 1000 {
				continue
			}
			// Warm restarts: rows that cut off nothing at xstar, then
			// columns, each from the previous optimum's basis and factors.
			inst.CaptureFactors(&res, nil)
			idxs, vals, lbs, ubs := appendRandomRows(rng, c.n, 4, xstar)
			for k := range idxs {
				// Keep the cuts sparse: at most eight entries each.
				if len(idxs[k]) > 8 {
					idxs[k], vals[k] = idxs[k][:8], vals[k][:8]
					act := 0.0
					for e, j := range idxs[k] {
						act += vals[k][e] * xstar[j]
					}
					lbs[k], ubs[k] = math.Inf(-1), act+0.01
				}
				inst.AppendRow(idxs[k], vals[k], lbs[k], ubs[k])
				twin.AppendRow(idxs[k], vals[k], lbs[k], ubs[k])
			}
			for _, step := range []string{"append-row", "append-column"} {
				if step == "append-column" {
					cidx, cval, clb, cub, cobj := appendRandomCols(rng, inst.NumRows(), 3)
					for k := range cidx {
						inst.AppendColumn(cidx[k], cval[k], clb[k], cub[k], -5+cobj[k])
						twin.AppendColumn(cidx[k], cval[k], clb[k], cub[k], -5+cobj[k])
					}
				}
				want := twin.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
				pr := &pricingRun{t: t, where: c.name + "/" + step, blandEvery: c.blandEvery}
				s, st := pr.warm(inst, &res)
				if st != iterOptimal || want.Status != StatusOptimal || !want.WarmUsed {
					t.Fatalf("%s %s: stepped status %v, Solve status %v (warm %v)", c.name, step, st, want.Status, want.WarmUsed)
				}
				res = s.result(StatusOptimal)
				if c.blandEvery == 0 && res.Iterations != want.Iterations {
					t.Fatalf("%s %s: stepped restart took %d iterations, Solve %d", c.name, step, res.Iterations, want.Iterations)
				}
				inst.CaptureFactors(&res, nil)
				add(pr)
			}
		}
	}
	t.Logf("%d choices checked: %d under Bland's rule, %d first sections straddling N, %d primal bound flips, %d dual iterations, %d refactorizations",
		total.choices, total.blandChoices, total.wraps, total.primalFlips, total.dualIt, total.refactors)
	if total.blandChoices == 0 || total.wraps == 0 || total.primalFlips == 0 || total.refactors == 0 {
		t.Fatalf("coverage hole: bland %d, straddling sections %d, primal flips %d, refactorizations %d",
			total.blandChoices, total.wraps, total.primalFlips, total.refactors)
	}
}

// TestPricingMatchesFullScanBoundFlips covers the dual's long-step bound
// flips: warm restarts after branching-style bound changes on a boxed LP,
// where the leaving row's violation is large enough to flip short-span
// columns.
func TestPricingMatchesFullScanBoundFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	flips := 0
	for trial := 0; trial < 10; trial++ {
		p, xstar := buildSparseLP(rng, 300, 120, 6)
		for j := 0; j < p.NumCols(); j++ {
			if rng.Intn(3) == 0 { // short spans around xstar flip cheaply
				p.ColLB[j], p.ColUB[j] = xstar[j]-0.025, xstar[j]+0.025
			}
		}
		inst := NewInstance(p)
		res := inst.Solve(nil)
		if res.Status != StatusOptimal {
			continue
		}
		inst.CaptureFactors(&res, nil)
		for round := 0; round < 6; round++ {
			// Branch: pin a column strictly inside its box to one end.
			j := -1
			for k := 0; k < inst.NumCols(); k++ {
				lo, hi := inst.ColBounds(k)
				if x := res.X[k]; x > lo+0.1 && x < hi-0.1 {
					j = k
					break
				}
			}
			if j < 0 {
				break
			}
			lo, hi := inst.ColBounds(j)
			if rng.Intn(2) == 0 {
				inst.SetColBounds(j, lo, lo)
			} else {
				inst.SetColBounds(j, hi, hi)
			}
			pr := &pricingRun{t: t, where: "bound-flips"}
			s, st := pr.warm(inst, &res)
			flips += s.boundFlips
			if st != iterOptimal {
				// The branch is infeasible. Solve it cold on the same
				// workspace too: the dual phase 1 must not inherit the
				// ended dual's sets.
				pr.cold(inst)
				inst.SetColBounds(j, lo, hi)
				continue
			}
			res = s.result(StatusOptimal)
			inst.CaptureFactors(&res, nil)
		}
	}
	if flips == 0 {
		t.Fatal("no dual bound flips taken: the probe is vacuous")
	}
	t.Logf("%d dual bound flips", flips)
}

// TestFinishOptimalReportsCleanupFailure drives finishOptimal from a
// primal-infeasible basis. When its cleanup dual is interrupted, or proves
// the point cannot be repaired, the result must say so instead of labelling
// the infeasible point optimal.
func TestFinishOptimalReportsCleanupFailure(t *testing.T) {
	// max x + y  s.t.  x + y ≤ 1.5,  0 ≤ x, y ≤ 1: optimal at (1, 0.5) with
	// one of the columns basic at 0.5.
	p := NewProblem()
	p.Sense = Maximize
	x := p.AddCol(1, 0, 1)
	y := p.AddCol(1, 0, 1)
	p.AddLE([]int32{int32(x), int32(y)}, []float64{1, 1}, 1.5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		// lo, hi replace the basic column's bounds; lo2 the other column's
		// lower bound.
		lo, hi, lo2 float64
		want        Status
	}{
		{"repairable", nil, 0.8, 0.9, 0, StatusOptimal},
		{"interrupted", cancelled, 0.8, 0.9, 0, StatusIterLimit},
		{"infeasible", nil, 0.8, 0.9, 0.9, StatusNumeric},
	} {
		inst := NewInstance(p)
		if res := inst.Solve(nil); res.Status != StatusOptimal {
			t.Fatalf("%s: status %v", tc.name, res.Status)
		}
		s := inst.sv // left at the optimal basis
		basic := -1
		for _, j := range []int{x, y} {
			if s.vstat[j] == vsBasic {
				basic = j
			}
		}
		if basic < 0 || inst.scaled {
			t.Fatalf("%s: expected an unscaled instance with x or y basic", tc.name)
		}
		other := x + y - basic
		s.lb[basic], s.ub[basic] = tc.lo, tc.hi
		s.lb[other] = tc.lo2
		s.iters = 0 // the dual checks for interruption when iters%64 == 0
		s.opts = Options{Context: tc.ctx}
		if got := s.finishOptimal(inst.iterBudget()); got.Status != tc.want {
			t.Fatalf("%s: finishOptimal status %v, want %v", tc.name, got.Status, tc.want)
		}
	}
}

// randomPricingState fills s with an arbitrary pricing state over N columns
// and m rows, drawn from rng: statuses, fixed columns, reduced costs and
// basic values at, near and beyond the tolerances (NaN and ±Inf included),
// and Devex and steepest-edge weights from tiny to huge. density is the
// share of columns and rows pushed out of tolerance.
func randomPricingState(rng *rand.Rand, N, m int, density float64) *solver {
	// The solver's two tolerances are equal, so the edge values below sit
	// at both.
	const tol = numtol.LPOptTol
	s := &solver{N: N, m: m}
	s.vstat, s.lb, s.ub = make([]int8, N), make([]float64, N), make([]float64, N)
	s.d, s.devexW = make([]float64, N), make([]float64, N)
	s.basis, s.xB, s.dualW = make([]int32, m), make([]float64, m), make([]float64, m)
	s.cand, s.infeas = make(bitset, words(N)), make(bitset, words(m))
	edge := []float64{0, tol, -tol, tol * (1 + 1e-15), -tol * (1 + 1e-15), math.NaN(), math.Inf(1), math.Inf(-1)}
	value := func() float64 {
		switch {
		case rng.Float64() < 0.1:
			return edge[rng.Intn(len(edge))]
		case rng.Float64() < density:
			return rng.NormFloat64()
		}
		return rng.NormFloat64() * tol / 4
	}
	weight := func() float64 {
		return []float64{1, 1e-300, 1e300, 1 + rng.Float64()*100}[rng.Intn(4)]
	}
	for j := 0; j < N; j++ {
		s.vstat[j] = int8(rng.Intn(4))
		s.lb[j], s.ub[j] = 0, 1+float64(rng.Intn(3))
		if rng.Intn(8) == 0 {
			s.ub[j] = s.lb[j] // fixed
		}
		s.d[j], s.devexW[j] = value(), weight()
	}
	for i := 0; i < m; i++ {
		j := rng.Intn(N)
		s.basis[i] = int32(j)
		s.xB[i] = []float64{s.lb[j], s.ub[j]}[rng.Intn(2)] + value()
		s.dualW[i] = weight()
	}
	return s
}

// FuzzPricingMatchesScan holds the set-driven choices to the full scans.
// Each input draws an arbitrary pricing state (sizes up to past eight
// sections, any cursor, Bland's rule on or off), then alternates choices
// with random changes that are re-marked the way the solver re-marks them.
// It finishes with a stepped solve of a small random LP, checked at every
// iteration as in TestPricingMatchesFullScan.
func FuzzPricingMatchesScan(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(30), uint16(0), uint8(40), false)
	f.Add(int64(2), uint16(1152), uint16(300), uint16(1000), uint8(5), false)
	f.Add(int64(3), uint16(3201), uint16(700), uint16(3000), uint8(1), false)
	f.Add(int64(4), uint16(3201), uint16(700), uint16(3200), uint8(200), true)
	f.Add(int64(5), uint16(64), uint16(64), uint16(63), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n, m, cursor uint16, density uint8, bland bool) {
		N, M := 1+int(n)%4000, 1+int(m)%1500
		rng := rand.New(rand.NewSource(seed))
		s := randomPricingState(rng, N, M, float64(density)/255)
		s.priceCursor, s.bland, s.dValid = int(cursor)%(N+2), bland, true
		for j := 0; j < N; j++ {
			s.markCand(j)
		}
		s.rebuildInfeas()
		for round := 0; round < 6; round++ {
			checkEntering(t, s, "fuzz")
			s.priceEntering() // advance the cursor as the choice does
			checkLeaving(t, s, "fuzz")
			for k := 0; k < 1+rng.Intn(8); k++ {
				j := rng.Intn(N)
				s.vstat[j], s.d[j] = int8(rng.Intn(4)), rng.NormFloat64()
				s.markCand(j)
				i := rng.Intn(M)
				s.xB[i] = rng.NormFloat64() * 2
				s.markInfeas(i)
			}
			if err := s.staleCandidates(); err != nil {
				t.Fatal(err)
			}
		}

		p, _ := buildSparseLP(rng, 2+int(n)%120, 1+int(m)%60, 1+int(density)%6)
		pr := &pricingRun{t: t, where: "fuzz solve", blandEvery: 2 * (int(cursor) % 5), maxIters: 3000}
		pr.cold(NewInstance(p))
	})
}
