package model

import (
	"time"

	"tvnep/internal/mip"
)

// Progress is a snapshot of a running solve, delivered to the callback
// installed in SolveOptions.Progress. It aliases the branch-and-bound
// progress record: incumbent updates carry NewIncumbent == true, all other
// callbacks are periodic node-count ticks.
type Progress = mip.Progress

// ProgressFunc receives solve progress snapshots. Callbacks run
// synchronously on the solving goroutine; keep them cheap.
type ProgressFunc func(Progress)

// Cut is one valid inequality produced by a Separator; it aliases the
// branch-and-bound solver's cut record.
type Cut = mip.Cut

// Separator lazily generates valid inequalities from fractional relaxation
// points; register implementations with Model.RegisterSeparator. The
// interface (and its validity/determinism contract) is the branch-and-bound
// solver's.
type Separator = mip.Separator

// CutStats summarizes the lazy-separation work of one solve.
type CutStats = mip.CutStats

// Column is one lazily generated structural column produced by a Pricer; it
// aliases the branch-and-bound solver's column record.
type Column = mip.Column

// Pricer lazily generates improving columns from relaxation dual values;
// register implementations with Model.RegisterPricer. The interface (and its
// validity/determinism contract) is the branch-and-bound solver's.
type Pricer = mip.Pricer

// ColumnStats summarizes the column-generation work of one solve.
type ColumnStats = mip.ColumnStats

// SolveOptions is the single options struct for every solve in the
// repository: exact MIP solves (Model.Optimize, core.Built.Solve), the
// per-iteration subproblems of the greedy algorithm, the admission engine's
// per-decision solves, and the evaluation sweeps. The zero value means "no
// limits, serial, silent".
//
// Direct construction is an internal lowering target and deprecated for
// API consumers: configure solves through the pkg/tvnep facade's functional
// options (tvnep.WithTimeLimit, tvnep.WithWorkers, …), which lower into
// this struct in exactly one place.
type SolveOptions struct {
	// TimeLimit bounds one solve (0 → none). The greedy algorithm applies
	// it per iteration; sweeps apply it per scenario solve.
	TimeLimit time.Duration
	// NodeLimit bounds the branch-and-bound node count (0 → none).
	NodeLimit int
	// GapTol is the relative optimality gap at which the search stops
	// (default 1e-6).
	GapTol float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// HeuristicEvery runs the rounding heuristic at the root and at every
	// k-th node thereafter (0 → the default of 50; a negative value
	// disables the heuristic entirely, including at the root).
	HeuristicEvery int
	// Workers is the degree of parallelism. Sweep drivers (internal/eval)
	// use it as the number of scenarios solved concurrently, where 0 means
	// runtime.NumCPU(); a single solve hands it to the branch-and-bound
	// tree search as the number of node-relaxation workers, where 0 means
	// one worker. The parallel tree search is deterministic: its committed
	// result is bit-identical for every worker count. Sweeps keep their
	// inner solves single-worker, so the two uses never multiply.
	Workers int
	// Progress, when non-nil, receives per-solve progress snapshots
	// (incumbent updates, node counts, LP iteration totals).
	Progress ProgressFunc
	// ProgressEvery is the periodic progress interval in nodes (default
	// 100; < 0 keeps only incumbent callbacks).
	ProgressEvery int
	// Seed drives the explicitly seeded sampling of the randomized-rounding
	// tier (internal/round) and any future randomized component. The exact
	// branch-and-bound is deterministic by construction and ignores it.
	Seed int64
}

// mipOptions lowers the public options into the branch-and-bound solver's
// option set. Nil receivers lower to nil (solver defaults).
func (o *SolveOptions) mipOptions() *mip.Options {
	if o == nil {
		return nil
	}
	mo := &mip.Options{
		TimeLimit:      o.TimeLimit,
		NodeLimit:      o.NodeLimit,
		GapTol:         o.GapTol,
		IntTol:         o.IntTol,
		HeuristicEvery: o.HeuristicEvery,
		Workers:        o.Workers,
		ProgressEvery:  o.ProgressEvery,
	}
	if o.Progress != nil {
		mo.Progress = o.Progress
	}
	return mo
}
