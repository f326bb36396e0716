package lp

import (
	"math"
	"math/rand"
	"testing"
)

// assertSameResult fails unless got and want agree bit for bit on every
// deterministic field of a solve.
func assertSameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations {
		t.Fatalf("%s: status %v after %d iterations, fresh workspace %v after %d",
			name, got.Status, got.Iterations, want.Status, want.Iterations)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("%s: objective %v, fresh workspace %v", name, got.Obj, want.Obj)
	}
	sameBits := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d entries, fresh workspace %d", name, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, fresh workspace %v", name, what, i, a[i], b[i])
			}
		}
	}
	sameBits("X", got.X, want.X)
	sameBits("Duals", got.Duals, want.Duals)
	if (got.Basis == nil) != (want.Basis == nil) {
		t.Fatalf("%s: basis presence differs from the fresh workspace's", name)
	}
	if got.Basis == nil {
		return
	}
	for i := range want.Basis.Basic {
		if got.Basis.Basic[i] != want.Basis.Basic[i] {
			t.Fatalf("%s: basic column at position %d is %d, fresh workspace %d", name, i, got.Basis.Basic[i], want.Basis.Basic[i])
		}
	}
	for j := range want.Basis.Status {
		if got.Basis.Status[j] != want.Basis.Status[j] {
			t.Fatalf("%s: column %d status %d, fresh workspace %d", name, j, got.Basis.Status[j], want.Basis.Status[j])
		}
	}
}

// solveAndCut runs the admission-style sequence on inst: a cold solve, two
// appended rows cutting through the optimum, and a warm restart from the
// captured basis and factors. It returns both results.
func solveAndCut(inst *Instance, rng *rand.Rand, xstar []float64) (cold, warm Result) {
	cold = inst.Solve(nil)
	inst.CaptureFactors(&cold, nil)
	idxs, vals, lbs, ubs := appendRandomRows(rng, inst.NumCols(), 2, xstar)
	for i := range idxs {
		inst.AppendRow(idxs[i], vals[i], lbs[i], ubs[i])
	}
	warm = inst.Solve(&Options{WarmBasis: cold.Basis, WarmFactors: cold.Factors})
	return cold, warm
}

// spreadRows multiplies row i of p, coefficients and bounds, by 10^(2·(i mod
// 5)): the same feasible set with a coefficient spread equilibration acts
// on.
func spreadRows(p *Problem) {
	for i := 0; i < p.NumRows(); i++ {
		f := math.Pow(10, float64(2*(i%5)))
		_, val := p.Row(i)
		for k := range val {
			val[k] *= f
		}
		p.RowLB[i] *= f
		p.RowUB[i] *= f
	}
}

// tameRows rounds every coefficient of p to a nonzero multiple of 1/2 in
// [-3, 3], and re-centres the finite row bounds on xstar's activity: a
// feasible problem with a spread equilibration leaves alone.
func tameRows(p *Problem, xstar []float64) {
	for i := 0; i < p.NumRows(); i++ {
		idx, val := p.Row(i)
		act := 0.0
		for k, j := range idx {
			v := math.Max(-3, math.Min(3, math.Round(2*val[k])/2))
			if v == 0 {
				v = 0.5
			}
			val[k] = v
			act += v * xstar[j]
		}
		if !math.IsInf(p.RowLB[i], 0) {
			p.RowLB[i] = act - 1
		}
		if !math.IsInf(p.RowUB[i], 0) {
			p.RowUB[i] = act + 1
		}
	}
}

// assertSameCompiled fails unless got holds exactly the compiled problem
// want holds: dimensions, column-major matrix, bounds, costs and scales.
func assertSameCompiled(t *testing.T, got, want *Instance) {
	t.Helper()
	if got.n != want.n || got.m != want.m || got.baseRows != want.baseRows || got.baseCols != want.baseCols ||
		got.negate != want.negate || got.scaled != want.scaled {
		t.Fatalf("recompiled %d×%d scaled=%v, fresh %d×%d scaled=%v", got.m, got.n, got.scaled, want.m, want.n, want.scaled)
	}
	if len(got.extraIdx) != 0 || got.apRowIdx != nil {
		t.Fatal("the recompiled instance kept appended rows or columns")
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d entries, fresh %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, fresh %v", what, i, a[i], b[i])
			}
		}
	}
	same("lb", got.lb, want.lb)
	same("ub", got.ub, want.ub)
	same("objMin", got.objMin, want.objMin)
	for j := 0; j < want.n; j++ {
		same("column values", got.colVal[j], want.colVal[j])
		for k, i := range want.colIdx[j] {
			if got.colIdx[j][k] != i {
				t.Fatalf("column %d entry %d: row %d, fresh %d", j, k, got.colIdx[j][k], i)
			}
		}
	}
	if want.scaled {
		same("rowScale", got.rowScale, want.rowScale)
		same("colScale", got.colScale, want.colScale)
		same("colScaleInv", got.colScaleInv, want.colScaleInv)
		for i := 0; i < want.m; i++ {
			same("scaled row", got.baseRowVal[i], want.baseRowVal[i])
		}
	}
}

// TestCompileMatchesFresh is the stale-state guard of recompilation:
// storage and a workspace left with appended rows and columns by a large
// scaled problem, then recompiled for smaller and larger, scaled and
// unscaled problems, must hold exactly what NewInstance compiles and take
// exactly its simplex path, cold and after a warm restart over appended
// rows. Recompile must leave the workspace it keeps bound to no problem and
// holding no warm start, so the next solve refits it and nothing of the
// previous problem stays reachable. The last row has the dimensions the
// row before it leaves the workspace at (its two appended rows included):
// the one shape whose first solve would not refit the workspace by its
// dimensions alone.
func TestCompileMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	big, bigX := buildRandomLP(rng, 90, 70)
	spreadRows(big)
	var inst Instance
	inst.Recompile(big)
	if !inst.scaled {
		t.Fatal("the spread problem was left unscaled")
	}
	solveAndCut(&inst, rng, bigX)
	idxs, vals, lbs, ubs, objs := appendRandomCols(rng, inst.NumRows(), 2)
	for k := range idxs {
		inst.AppendColumn(idxs[k], vals[k], lbs[k], ubs[k], objs[k])
	}
	inst.Solve(nil)

	for _, tc := range []struct {
		n, m   int
		spread bool
	}{{40, 25, false}, {60, 45, true}, {110, 85, false}, {120, 90, true}, {120, 92, true}} {
		// buildRandomLP's normal coefficients already need scaling.
		p, xstar := buildRandomLP(rng, tc.n, tc.m)
		if !tc.spread {
			tameRows(p, xstar)
		}
		seed := rng.Int63()
		sv := inst.sv
		inst.Recompile(p)
		if inst.sv != sv {
			t.Fatalf("%d×%d: Recompile dropped the workspace of the problem it saw last", tc.m, tc.n)
		}
		if sv.inst != nil || sv.fac != nil || sv.extended || sv.opts.WarmBasis != nil || sv.opts.WarmFactors != nil {
			t.Fatalf("%d×%d: the kept workspace still holds the previous problem or its warm start", tc.m, tc.n)
		}
		fresh := NewInstance(p)
		if fresh.scaled != tc.spread {
			t.Fatalf("%d×%d: scaled=%v, want %v", tc.m, tc.n, fresh.scaled, tc.spread)
		}
		assertSameCompiled(t, &inst, fresh)
		rc, rw := solveAndCut(&inst, rand.New(rand.NewSource(seed)), xstar)
		fc, fw := solveAndCut(fresh, rand.New(rand.NewSource(seed)), xstar)
		assertSameResult(t, "cold", rc, fc)
		assertSameResult(t, "warm", rw, fw)
	}
}

// TestRecompileKeepsOnlyWhatFits pins what a recompiled instance keeps
// across its problems: storage grown for a large problem survives a small
// one recompiled right after it, because the instance has just seen the
// large size; it goes once the instance has seen only small problems for a
// while, instead of pinning its peak footprint, and so do the idle buffers,
// LU bases and captures the lowered peak no longer fits; and an instance
// that is never recompiled keeps what its own solves hand back, for its
// later solves.
func TestRecompileKeepsOnlyWhatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const bigRows = 60
	small, _ := buildRandomLP(rng, 10, 6)
	big, _ := buildRandomLP(rng, 100, bigRows)
	// grown returns an instance that solved big twice, the result of the
	// second solve handed back to it.
	grown := func(t *testing.T) *Instance {
		inst := &Instance{}
		for pass := 0; pass < 2; pass++ {
			inst.Recompile(big)
			res := inst.Solve(nil)
			if res.Status != StatusOptimal {
				t.Fatalf("large problem: %v", res.Status)
			}
			inst.CaptureFactors(&res, nil)
			inst.Reuse(res)
		}
		sp := inst.spares
		if _, caps, _, _ := inst.facWS.Idle(); caps != 1 || len(sp.bases) != 1 || len(sp.vecs[solutionVec]) != 1 || len(sp.vecs[dualVec]) != 1 {
			t.Fatal("the instance did not keep a result of the problem it sized itself for")
		}
		return inst
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"small-right-after-large", func(t *testing.T) {
			inst := grown(t)
			sv, lbCap := inst.sv, cap(inst.lb)
			inst.Recompile(small)
			inst.Solve(nil)
			if inst.sv != sv || cap(inst.lb) != lbCap {
				t.Fatal("a small problem dropped the storage a large one grew just before")
			}
		}},
		{"run-of-small", func(t *testing.T) {
			inst := grown(t)
			sv, lbCap := inst.sv, cap(inst.lb)
			// Each small Recompile lowers the peak by 1/peakDecay; the
			// large storage goes once its capacity exceeds twice that,
			// several problems later, and the idle buffers as their
			// capacities stop fitting.
			for recompiles := 1; ; recompiles++ {
				if recompiles > 4*peakDecay {
					t.Fatalf("storage sized for a much larger problem is still kept after %d small ones", recompiles)
				}
				inst.Recompile(small)
				sp := &inst.spares
				bases, caps, maxM, maxEta := inst.facWS.Idle()
				if bases > factorSlots || caps > factorSlots {
					t.Fatalf("recompile %d: kept %d LU bases and %d captures, over %d slots", recompiles, bases, caps, factorSlots)
				}
				if !sp.fits(maxM) || !sp.fits(maxEta) {
					t.Fatalf("recompile %d: kept an LU base of dimension %d or a capture of %d eta entries over peak %d", recompiles, maxM, maxEta, sp.peak)
				}
				for _, b := range sp.bases {
					if !sp.fits(cap(b.Status)) {
						t.Fatalf("recompile %d: kept a basis of capacity %d over peak %d", recompiles, cap(b.Status), sp.peak)
					}
				}
				for _, vs := range sp.vecs {
					for _, v := range vs {
						if !sp.fits(cap(v)) {
							t.Fatalf("recompile %d: kept a vector of capacity %d over peak %d", recompiles, cap(v), sp.peak)
						}
					}
				}
				if (inst.sv == sv) != (cap(inst.lb) == lbCap) {
					t.Fatalf("recompile %d: the workspace and the compiled storage went separately", recompiles)
				}
				inst.Solve(nil)
				if inst.sv != sv {
					if recompiles < 4 {
						t.Fatalf("the large storage was dropped after only %d small problems", recompiles)
					}
					break
				}
			}
			// The large result's pieces, its LU bases among them, are
			// smaller than the workspace but still large beside the small
			// problem's.
			largeKept := func() bool {
				_, _, maxM, _ := inst.facWS.Idle()
				sp := &inst.spares
				return maxM >= bigRows || len(sp.bases)+len(sp.vecs[solutionVec])+len(sp.vecs[dualVec]) > 0
			}
			for recompiles := 1; largeKept(); recompiles++ {
				if recompiles > 4*peakDecay {
					t.Fatalf("idle buffers of a much larger problem are still kept after %d more small ones", recompiles)
				}
				inst.Recompile(small)
				inst.Solve(nil)
			}
		}},
		{"never-recompiled", func(t *testing.T) {
			inst := NewInstance(big)
			res := inst.Solve(nil)
			inst.CaptureFactors(&res, nil)
			f := res.Factors
			inst.Reuse(res)
			sp := inst.spares
			if _, caps, _, _ := inst.facWS.Idle(); caps != 1 || len(sp.bases) != 1 || len(sp.vecs[solutionVec]) != 1 || len(sp.vecs[dualVec]) != 1 {
				t.Fatal("an instance that was never recompiled dropped storage handed back to it")
			}
			again := inst.Solve(nil)
			if &again.X[0] != &res.X[0] || again.Basis != res.Basis {
				t.Fatal("a solve on an instance that was never recompiled did not reuse handed-back storage")
			}
			if inst.CaptureFactors(&again, nil); again.Factors != f {
				t.Fatal("a capture on an instance that was never recompiled did not reuse a handed-back one")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestRecycledWorkspaceMatchesFresh is the stale-state guard of the storage
// Reuse hands back: problems solved one after another on one recompiled
// instance, every result of a problem (its captured factors included)
// handed back before the next Recompile, must take exactly a fresh
// instance's simplex path, cold and after a warm restart over appended
// rows, although their solves draw solution and dual vectors, bases and
// factor buffers the previous problem left dirty.
func TestRecycledWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var inst Instance
	handedX, handedBases := map[*float64]bool{}, map[*Basis]bool{}
	drawnX, drawnBases := 0, 0
	for _, size := range []struct{ n, m int }{{60, 40}, {40, 25}, {90, 70}, {60, 40}, {50, 30}} {
		p, xstar := buildRandomLP(rng, size.n, size.m)
		seed := rng.Int63()
		inst.Recompile(p)
		rc, rw := solveAndCut(&inst, rand.New(rand.NewSource(seed)), xstar)
		fc, fw := solveAndCut(NewInstance(p), rand.New(rand.NewSource(seed)), xstar)
		assertSameResult(t, "cold", rc, fc)
		assertSameResult(t, "warm", rw, fw)
		for _, r := range []Result{rc, rw} {
			if len(r.X) > 0 && handedX[&r.X[0]] {
				drawnX++
			}
			if handedBases[r.Basis] {
				drawnBases++
			}
		}
		for _, r := range []Result{rc, rw} {
			if len(r.X) > 0 {
				handedX[&r.X[0]] = true
			}
			handedBases[r.Basis] = true
			inst.Reuse(r)
		}
	}
	if drawnX == 0 || drawnBases == 0 {
		t.Fatalf("the solves drew %d solution vectors and %d bases handed back, want some of each", drawnX, drawnBases)
	}
}

// TestReleaseKeepsOnlyWhatFits pins what becomes of a workspace: an
// instance that is never recompiled keeps its workspace across its solves;
// a recompiled instance releases a workspace grown for a wide problem once
// a run of narrow problems has lowered its peak, but keeps the LU bases
// its factorization pool holds, which are sized by the basis dimension,
// for the next solve's refactorizations.
func TestReleaseKeepsOnlyWhatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	wide, _ := buildRandomLP(rng, 200, 6)
	narrow, _ := buildRandomLP(rng, 10, 6)

	plain := NewInstance(narrow)
	plain.Solve(nil)
	sv := plain.sv
	plain.Solve(nil)
	if plain.sv != sv {
		t.Fatal("an instance that was never recompiled dropped its workspace")
	}

	var inst Instance
	inst.Recompile(wide)
	inst.Solve(nil)
	sv = inst.sv
	for recompiles := 1; ; recompiles++ {
		if recompiles > 4*peakDecay {
			t.Fatalf("a workspace grown for a wide problem is still kept after %d narrow ones", recompiles)
		}
		inst.Recompile(narrow)
		if inst.sv == sv {
			inst.Solve(nil)
			continue
		}
		if recompiles < 4 {
			t.Fatalf("the wide problem's workspace was released after only %d narrow problems", recompiles)
		}
		held, _, _, _ := inst.facWS.Idle()
		if held == 0 {
			t.Fatal("Recompile dropped the LU bases of the pool, though they fit")
		}
		inst.Solve(nil)
		if after, _, _, _ := inst.facWS.Idle(); after > held {
			t.Fatalf("the next solve grew the pool from %d LU bases to %d instead of drawing them", held, after)
		}
		return
	}
}

// TestRecycleKeepsOnlyWhatFits pins how Recompile reuses compiled storage:
// an instance that is never recompiled sizes it exactly; a recompiled one
// gives it a sixteenth of headroom and compiles the next problem, a little
// larger or, right after a large one, a small one, into the same arrays;
// and storage it dropped once its peak fell is replaced by storage sized
// for the problem at hand.
func TestRecycleKeepsOnlyWhatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p, _ := buildRandomLP(rng, 40, 25)
	wider, _ := buildRandomLP(rng, 42, 25)
	small, _ := buildRandomLP(rng, 10, 6)
	big, _ := buildRandomLP(rng, 100, 60)
	size := func(inst *Instance) int { return inst.n + inst.m }

	if fresh := NewInstance(p); cap(fresh.lb) != size(fresh) {
		t.Fatalf("an instance that was never recompiled holds %d entries for %d", cap(fresh.lb), size(fresh))
	}
	var inst Instance
	inst.Recompile(p)
	if k := size(&inst); cap(inst.lb) != k+k/16 {
		t.Fatalf("a recompiled instance holds %d entries for %d, want a sixteenth of headroom", cap(inst.lb), k)
	}
	inst.Solve(nil)
	lb := &inst.lb[0]
	if wider.NumCols()+wider.NumRows() > cap(inst.lb) {
		t.Fatal("the wider problem does not fit the headroom")
	}
	inst.Recompile(wider)
	if &inst.lb[0] != lb {
		t.Fatal("a slightly larger problem was not compiled into the same storage")
	}

	inst.Recompile(big)
	inst.Solve(nil)
	lb = &inst.lb[0]
	for recompiles := 1; ; recompiles++ {
		if recompiles > 4*peakDecay {
			t.Fatalf("storage compiled for a much larger problem is still kept after %d small ones", recompiles)
		}
		inst.Recompile(small)
		if &inst.lb[0] == lb {
			inst.Solve(nil)
			continue
		}
		if recompiles < 2 {
			t.Fatal("a small problem dropped the storage a large one grew just before")
		}
		if k := size(&inst); cap(inst.lb) != k+k/16 {
			t.Fatalf("storage replacing dropped storage holds %d entries for %d", cap(inst.lb), k)
		}
		return
	}
}
