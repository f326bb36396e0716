package lp

import (
	"math"
	"math/rand"
	"testing"
)

// warmCounters snapshots the package debug counters around a block.
func warmCounters(f func()) (attempts, ok, handoffs int64) {
	a0, o0, h0 := DebugWarmAttempts.Load(), DebugWarmOK.Load(), DebugFactorHandoffs.Load()
	f()
	return DebugWarmAttempts.Load() - a0, DebugWarmOK.Load() - o0, DebugFactorHandoffs.Load() - h0
}

// TestWarmStartRefactorizes: a warm start from a bare basis (no factor
// handoff) must refactorize from the instance data and succeed.
func TestWarmStartRefactorizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, _ := buildRandomLP(rng, 8, 10)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	if res.Status != StatusOptimal {
		t.Fatalf("cold status %v", res.Status)
	}
	attempts, ok, handoffs := warmCounters(func() {
		warm := inst.Solve(&Options{WarmBasis: res.Basis})
		if warm.Status != StatusOptimal {
			t.Fatalf("warm status %v", warm.Status)
		}
		if math.Abs(warm.Obj-res.Obj) > 1e-7*(1+math.Abs(res.Obj)) {
			t.Fatalf("warm obj %v vs cold %v", warm.Obj, res.Obj)
		}
	})
	if attempts != 1 || ok != 1 {
		t.Fatalf("warm attempts/ok = %d/%d, want 1/1", attempts, ok)
	}
	if handoffs != 0 {
		t.Fatalf("factor handoffs = %d without WarmFactors, want 0", handoffs)
	}
}

// TestWarmStartFactorHandoff: supplying the captured factorization alongside
// the basis must be adopted as a handoff (no refactorization) and produce
// the same optimum — including on a DIFFERENT Instance of the same problem,
// which is what a branch-and-bound search that clones its handed root
// instance relies on.
func TestWarmStartFactorHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p, _ := buildRandomLP(rng, 8, 10)
	other := NewInstance(p)
	res := other.Solve(nil)
	other.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("cold status %v", res.Status)
	}
	if res.Factors == nil {
		t.Fatal("CaptureFactors set but Result.Factors is nil")
	}
	for _, inst := range []*Instance{other, NewInstance(p)} {
		attempts, ok, handoffs := warmCounters(func() {
			warm := inst.Solve(&Options{WarmBasis: res.Basis.Clone(), WarmFactors: res.Factors})
			if warm.Status != StatusOptimal {
				t.Fatalf("warm status %v", warm.Status)
			}
			if math.Abs(warm.Obj-res.Obj) > 1e-7*(1+math.Abs(res.Obj)) {
				t.Fatalf("warm obj %v vs cold %v", warm.Obj, res.Obj)
			}
		})
		if attempts != 1 || ok != 1 {
			t.Fatalf("warm attempts/ok = %d/%d, want 1/1", attempts, ok)
		}
		if handoffs != 1 {
			t.Fatalf("factor handoffs = %d, want 1", handoffs)
		}
	}
}

// TestCapturedFactorsOutliveSolver: captured factors must be a deep copy —
// later solves on the same instance reuse the solver's internal buffers, and
// must not corrupt a handoff captured earlier (siblings of a
// branch-and-bound node share the parent's factors read-only).
func TestCapturedFactorsOutliveSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p, _ := buildRandomLP(rng, 8, 10)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal || res.Factors == nil {
		t.Fatalf("cold status %v (factors %v)", res.Status, res.Factors != nil)
	}

	// Churn the solver state with perturbed re-solves.
	for k := 0; k < 4; k++ {
		j := rng.Intn(p.NumCols())
		if math.IsInf(p.ColUB[j], 1) || p.ColUB[j]-p.ColLB[j] < 1e-6 {
			continue
		}
		inst.SetColBounds(j, p.ColLB[j], p.ColLB[j]+(p.ColUB[j]-p.ColLB[j])*0.9)
		inst.Solve(&Options{WarmBasis: res.Basis.Clone(), WarmFactors: res.Factors})
	}

	// The original handoff must still reproduce the original optimum on a
	// fresh instance.
	fresh := NewInstance(p)
	warm := fresh.Solve(&Options{WarmBasis: res.Basis.Clone(), WarmFactors: res.Factors})
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status %v after churn", warm.Status)
	}
	if math.Abs(warm.Obj-res.Obj) > 1e-7*(1+math.Abs(res.Obj)) {
		t.Fatalf("warm obj %v vs original %v — captured factors were clobbered", warm.Obj, res.Obj)
	}
}

// TestWarmStartIncompatibleBasis: a basis of the wrong dimensions must be
// rejected by adoptBasis and fall back to a conclusive cold solve, with the
// attempt counted but not the success.
func TestWarmStartIncompatibleBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p, _ := buildRandomLP(rng, 8, 10)
	small, _ := buildRandomLP(rng, 4, 5)
	smallRes := NewInstance(small).Solve(nil)
	if smallRes.Status != StatusOptimal {
		t.Fatalf("small cold status %v", smallRes.Status)
	}
	cold := NewInstance(p).Solve(nil)

	inst := NewInstance(p)
	attempts, ok, _ := warmCounters(func() {
		warm := inst.Solve(&Options{WarmBasis: smallRes.Basis})
		if warm.Status != StatusOptimal {
			t.Fatalf("fallback status %v", warm.Status)
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-7*(1+math.Abs(cold.Obj)) {
			t.Fatalf("fallback obj %v vs cold %v", warm.Obj, cold.Obj)
		}
	})
	if attempts != 1 || ok != 0 {
		t.Fatalf("warm attempts/ok = %d/%d, want 1/0 (incompatible basis)", attempts, ok)
	}

	// A duplicated basic entry must also be rejected.
	bad := cold.Basis.Clone()
	if len(bad.Basic) >= 2 {
		bad.Basic[1] = bad.Basic[0]
		attempts, ok, _ = warmCounters(func() {
			if r := inst.Solve(&Options{WarmBasis: bad}); r.Status != StatusOptimal {
				t.Fatalf("fallback status %v", r.Status)
			}
		})
		if attempts != 1 || ok != 0 {
			t.Fatalf("warm attempts/ok = %d/%d, want 1/0 (duplicate basic)", attempts, ok)
		}
	}
}

// TestWarmStartChain: a sequence of bound nudges re-solved warm, each
// handing the previous solve's factors forward, must track the cold solves
// exactly — the steady-state pattern of the admission engine.
func TestWarmStartChain(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p, _ := buildRandomLP(rng, 10, 8)
	inst := NewInstance(p)
	res := inst.Solve(nil)
	inst.CaptureFactors(&res, nil)
	if res.Status != StatusOptimal {
		t.Fatalf("cold status %v", res.Status)
	}

	cold := NewInstance(p)
	steps := 0
	for k := 0; k < 20 && steps < 5; k++ {
		j := rng.Intn(p.NumCols())
		if math.IsInf(p.ColUB[j], 1) || p.ColUB[j]-p.ColLB[j] < 1e-6 {
			continue
		}
		lo := p.ColLB[j]
		hi := lo + (p.ColUB[j]-lo)*(0.5+0.4*rng.Float64())
		inst.SetColBounds(j, lo, hi)
		cold.SetColBounds(j, lo, hi)

		warm := inst.Solve(&Options{WarmBasis: res.Basis, WarmFactors: res.Factors})

		inst.CaptureFactors(&warm, nil)
		ref := cold.Solve(nil)
		if warm.Status != ref.Status {
			t.Fatalf("step %d: warm status %v vs cold %v", steps, warm.Status, ref.Status)
		}
		if warm.Status == StatusOptimal {
			if math.Abs(warm.Obj-ref.Obj) > 1e-7*(1+math.Abs(ref.Obj)) {
				t.Fatalf("step %d: warm obj %v vs cold %v", steps, warm.Obj, ref.Obj)
			}
			res = warm
		}
		steps++
	}
	if steps == 0 {
		t.Skip("no perturbable columns")
	}
}
