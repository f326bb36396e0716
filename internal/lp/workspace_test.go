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

	// Clones draw from their original's source.
	c := inst.Clone()
	c.Solve(nil)
	if c.sv != sv {
		t.Fatal("a clone did not draw from its original's source")
	}
}

// TestReleaseKeepsOnlyWhatFits pins when Release stashes a workspace:
// without a source it stays with its instance; a full source drops the
// surplus; and a workspace sized for a much larger instance is dropped
// instead of pinning its peak footprint in the stash.
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
	if len(w.idle) != 0 {
		t.Fatal("a workspace sized for a much larger instance was stashed")
	}
}
