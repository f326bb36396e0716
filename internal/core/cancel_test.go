package core

import (
	"context"
	"testing"
	"time"

	"tvnep/internal/model"
	"tvnep/internal/workload"
)

// hardInstance returns a contended Δ-Model scenario that the branch-and-
// bound provably cannot finish in a few milliseconds (the Δ-Model's big-M
// avalanche takes tens of seconds at this size; see TestDebugTiming).
func hardInstance(t *testing.T) (*Instance, *Built) {
	t.Helper()
	wl := workload.Default()
	wl.GridRows, wl.GridCols = 2, 2
	wl.NumRequests = 8
	wl.StarLeaves = 2
	wl.FlexibilityHr = 4
	sc := workload.Generate(wl, 3)
	inst := &Instance{Sub: sc.Substrate, Reqs: sc.Requests, Horizon: sc.Horizon}
	b := BuildDelta(inst, BuildOptions{Objective: AccessControl, FixedMapping: sc.Mapping})
	return inst, b
}

// TestSolveCancelledContextReturnsImmediately: an already-cancelled context
// must stop the solve before any node is explored.
func TestSolveCancelledContextReturnsImmediately(t *testing.T) {
	_, b := hardInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, ms := b.Solve(ctx, nil)
	if ms.Status != model.StatusCancelled {
		t.Fatalf("status %v, want %v", ms.Status, model.StatusCancelled)
	}
	if sol != nil || ms.HasSolution {
		t.Fatal("cancelled-before-start solve produced a solution")
	}
}

// TestSolveCancellationStopsLongSolve cancels mid-flight: the solve must
// come back orders of magnitude before its one-hour time limit and report
// StatusCancelled.
func TestSolveCancellationStopsLongSolve(t *testing.T) {
	_, b := hardInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, ms := b.Solve(ctx, &model.SolveOptions{TimeLimit: time.Hour})
	elapsed := time.Since(start)
	if ms.Status != model.StatusCancelled {
		t.Fatalf("status %v after %v, want %v", ms.Status, elapsed, model.StatusCancelled)
	}
	// Generous bound: cancellation is checked every 64 LP iterations and at
	// every node, so even slow CI machines finish far under this.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
