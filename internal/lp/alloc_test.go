package lp

import (
	"math/rand"
	"testing"
)

// TestSteadyStatePivotsAllocFree pins the steady-state allocation contract
// of the simplex hot path: once the solver's persistent scratch is warmed,
// warm re-solves that actually pivot must allocate exactly as much as warm
// re-solves that do not (i.e. only result packaging) — the iterations
// themselves are allocation-free.
func TestSteadyStatePivotsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := buildRandomLP(rng, 30, 18)
	inst := NewInstance(p)
	first := inst.Solve(nil)
	inst.CaptureFactors(&first, nil)
	if first.Status != StatusOptimal {
		t.Fatalf("cold solve status %v, want optimal", first.Status)
	}
	wb, wf := first.Basis, first.Factors
	warm := func() Result {
		return inst.Solve(&Options{WarmBasis: wb, WarmFactors: wf})
	}
	warm() // warm the persistent scratch
	base := testing.AllocsPerRun(20, func() { warm() })

	// Perturb a column sitting strictly between its bounds so the warm
	// re-solve has to take dual pivots, then restore.
	perturb := -1
	var plo, phi float64
	for j := range first.X {
		lo, hi := inst.ColBounds(j)
		if x := first.X[j]; x > lo+1e-6 && x < hi-1e-6 {
			perturb, plo, phi = j, lo, hi
			break
		}
	}
	if perturb < 0 {
		t.Skip("no interior column to perturb")
	}
	x := first.X[perturb]
	pivots := 0
	run := func() {
		inst.SetColBounds(perturb, plo, (plo+x)/2)
		r1 := warm()
		inst.SetColBounds(perturb, plo, phi)
		r2 := warm()
		pivots += r1.Iterations + r2.Iterations
	}
	run() // grow any scratch the perturbed trajectory needs
	pivots = 0
	per := testing.AllocsPerRun(20, run)
	if pivots == 0 {
		t.Fatal("perturbation produced no pivots; the probe is vacuous")
	}
	// run() packages two results, the baseline one.
	if per > 2*base {
		t.Fatalf("pivoting warm re-solve allocates %v per run vs %v packaging-only baseline (%d pivots): steady-state iterations must be allocation-free", per, 2*base, pivots)
	}
}

// TestAppendRowWarmSolveAllocatesNoWorkspace pins the workspace half of the
// hot-restart allocation contract: growing an instance by a row and
// restarting warm resizes the instance's workspace in place instead of
// rebuilding it. The step must allocate at least a whole workspace less
// than the same step on a fresh workspace, and keep the same one.
func TestAppendRowWarmSolveAllocatesNoWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p, xstar := buildRandomLP(rng, 120, 80)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("cold solve status %v, want optimal", res.Status)
	}
	idxs, vals, lbs, ubs := appendRandomRows(rng, inst.NumCols(), 64, xstar)
	k := 0
	fresh := false
	step := func() {
		inst.AppendRow(idxs[k], vals[k], lbs[k], ubs[k])
		k++
		if fresh {
			inst.sv = nil // the control: a fresh workspace for every step
		}
		r := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})
		if !r.WarmUsed {
			t.Fatalf("row %d: the restart fell back cold", k)
		}
	}
	step() // size the workspace for appended rows
	sv := inst.sv
	reused := testing.AllocsPerRun(20, step)
	if inst.sv != sv {
		t.Fatal("AppendRow + warm Solve replaced the instance's workspace")
	}
	fresh = true
	rebuilt := testing.AllocsPerRun(20, step)
	workspace := testing.AllocsPerRun(1, func() { (&solver{}).fit(inst) })
	t.Logf("allocations per step: %v reused, %v with a fresh workspace, %v for the workspace itself", reused, rebuilt, workspace)
	if reused > rebuilt-workspace {
		t.Fatalf("AppendRow + warm Solve allocates %v objects, %v with a fresh workspace: the %v of a workspace are not saved",
			reused, rebuilt, workspace)
	}
}
