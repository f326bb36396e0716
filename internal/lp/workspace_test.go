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

// TestRecycledWorkspaceMatchesFresh is the stale-state guard of workspace
// recycling: a workspace left dirty by a large solve and handed back through
// Workspaces must give a smaller and then a larger instance exactly the
// trajectory a fresh workspace gives — same X, objective, duals, iteration
// count and basis, cold and after a warm restart over appended rows.
func TestRecycledWorkspaceMatchesFresh(t *testing.T) {
	w := NewWorkspaces(1)
	rng := rand.New(rand.NewSource(17))
	big, bigX := buildRandomLP(rng, 60, 40)
	inst := NewInstance(big)
	inst.UseWorkspaces(w)
	if _, warm := solveAndCut(inst, rng, bigX); warm.Status != StatusOptimal {
		t.Fatalf("large warm restart: %v", warm.Status)
	}
	sv := inst.sv
	inst.Release()
	if inst.sv != nil || len(w.idle) != 1 || w.idle[0] != sv {
		t.Fatal("Release did not hand the workspace to the source")
	}

	// The smaller instance stays within the size Release still stashes a
	// workspace for, so both instances draw the same one.
	for _, size := range []struct{ n, m int }{{40, 25}, {90, 70}} {
		p, xstar := buildRandomLP(rng, size.n, size.m)
		seed := rng.Int63()
		recycled := NewInstance(p)
		recycled.UseWorkspaces(w)
		rc, rw := solveAndCut(recycled, rand.New(rand.NewSource(seed)), xstar)
		if recycled.sv != sv {
			t.Fatalf("%dx%d: the instance did not draw the released workspace", size.n, size.m)
		}
		fc, fw := solveAndCut(NewInstance(p), rand.New(rand.NewSource(seed)), xstar)
		assertSameResult(t, "cold", rc, fc)
		assertSameResult(t, "warm", rw, fw)
		recycled.Release()
	}
}

// TestReleaseKeepsOnlyWhatFits pins when Release stashes a workspace:
// without a source it stays with its instance; a full source drops the
// surplus; a workspace grown for a large instance survives a small
// instance's Release right after, because the source has just seen the
// large size; and it is dropped once the source has seen only small
// instances for a while, instead of pinning its peak footprint in the
// stash.
func TestReleaseKeepsOnlyWhatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, _ := buildRandomLP(rng, 10, 6)
	inst := NewInstance(p)
	inst.Solve(nil)
	sv := inst.sv
	inst.Release()
	if inst.sv != sv {
		t.Fatal("Release without a source dropped the workspace")
	}

	w := NewWorkspaces(1)
	a, b := NewInstance(p), NewInstance(p)
	a.UseWorkspaces(w)
	b.UseWorkspaces(w)
	a.Solve(nil)
	b.Solve(nil)
	a.Release()
	b.Release()
	if len(w.idle) != 1 {
		t.Fatalf("a one-slot source holds %d workspaces", len(w.idle))
	}

	big, _ := buildRandomLP(rng, 100, 60)
	c := NewInstance(big)
	c.UseWorkspaces(w)
	c.Solve(nil) // grows the stashed workspace for the large instance
	c.Release()
	if len(w.idle) != 1 {
		t.Fatal("a workspace that fit its instance was not stashed")
	}
	a.Solve(nil) // the small instance draws the grown workspace
	a.Release()
	if len(w.idle) != 1 {
		t.Fatal("a small instance dropped the workspace a large one grew just before")
	}
	// Each small Release lowers the observed size by 1/peakDecay; the grown
	// workspace goes once its capacity exceeds twice that, several releases
	// later.
	releases := 1
	for len(w.idle) == 1 {
		if releases > 4*peakDecay {
			t.Fatalf("a workspace sized for a much larger instance is still stashed after %d small releases", releases)
		}
		a.Solve(nil)
		a.Release()
		releases++
	}
	if releases < 4 {
		t.Fatalf("the grown workspace was dropped after only %d small releases", releases)
	}
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

// TestCompileMatchesFresh is the stale-state guard of compiled-storage
// recycling: storage left with appended rows and columns and a workspace
// by a large scaled problem, then recompiled for smaller and
// larger, scaled and unscaled problems, must hold exactly what NewInstance
// compiles and take exactly its simplex path, cold and after a warm restart
// over appended rows.
func TestCompileMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorkspaces(2)
	big, bigX := buildRandomLP(rng, 90, 70)
	spreadRows(big)
	inst := w.Compile(big)
	if !inst.scaled {
		t.Fatal("the spread problem was left unscaled")
	}
	solveAndCut(inst, rng, bigX)
	idxs, vals, lbs, ubs, objs := appendRandomCols(rng, inst.NumRows(), 2)
	for k := range idxs {
		inst.AppendColumn(idxs[k], vals[k], lbs[k], ubs[k], objs[k])
	}
	inst.Solve(nil)
	if !inst.Recycle() {
		t.Fatal("the source dropped the storage of the instance it saw last")
	}

	for _, tc := range []struct {
		n, m   int
		spread bool
	}{{40, 25, false}, {60, 45, true}, {110, 85, false}, {120, 90, true}} {
		// buildRandomLP's normal coefficients already need scaling.
		p, xstar := buildRandomLP(rng, tc.n, tc.m)
		if !tc.spread {
			tameRows(p, xstar)
		}
		seed := rng.Int63()
		recycled := w.Compile(p)
		if recycled != inst {
			t.Fatalf("%d×%d: Compile did not reuse the recycled storage", tc.m, tc.n)
		}
		fresh := NewInstance(p)
		if fresh.scaled != tc.spread {
			t.Fatalf("%d×%d: scaled=%v, want %v", tc.m, tc.n, fresh.scaled, tc.spread)
		}
		assertSameCompiled(t, recycled, fresh)
		rc, rw := solveAndCut(recycled, rand.New(rand.NewSource(seed)), xstar)
		fc, fw := solveAndCut(fresh, rand.New(rand.NewSource(seed)), xstar)
		assertSameResult(t, "cold", rc, fc)
		assertSameResult(t, "warm", rw, fw)
		if !recycled.Recycle() {
			t.Fatalf("%d×%d: the source dropped the storage of the instance it saw last", tc.m, tc.n)
		}
	}
}

// TestRecycleKeepsOnlyWhatFits pins when Recycle keeps compiled storage:
// never without a source; right after a large instance, even from a small
// one compiled into the large one's storage; and no longer once the source
// has seen only small instances for a while.
func TestRecycleKeepsOnlyWhatFits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	small, _ := buildRandomLP(rng, 10, 6)
	big, _ := buildRandomLP(rng, 100, 60)
	if inst := NewInstance(small); inst.Recycle() {
		t.Fatal("an instance without a source kept its storage somewhere")
	}
	w := NewWorkspaces(1)
	inst := w.Compile(big)
	inst.Solve(nil)
	if !inst.Recycle() {
		t.Fatal("the source dropped the storage of the only instance it saw")
	}
	for releases := 1; ; releases++ {
		again := w.Compile(small)
		if again != inst {
			t.Fatal("Compile did not reuse the kept storage")
		}
		again.Solve(nil)
		if again.Recycle() {
			if releases > 4*peakDecay {
				t.Fatalf("storage compiled for a much larger instance is still kept after %d small ones", releases)
			}
			continue
		}
		if releases < 2 {
			t.Fatal("a small instance dropped the storage a large one grew just before")
		}
		break
	}
	if w.Compile(small) == inst {
		t.Fatal("Compile reused storage Recycle dropped")
	}
}
