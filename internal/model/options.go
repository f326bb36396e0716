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

// Work counts the deterministic work of one solve (nodes, simplex
// iterations, bound flips and ratio passes); see mip.Work.
type Work = mip.Work

// SolveOptions is the single options struct for every solve in the
// repository: exact MIP solves (Model.Optimize, core.Built.Solve), the
// per-decision solves of the admission engine and of the greedy algorithm
// that replays it, and the rounding tier's fallback. The zero value means
// "no limits, silent".
//
// Direct construction is an internal lowering target: configure solves
// through the pkg/tvnep facade's functional options (tvnep.WithTimeLimit,
// tvnep.WithNodeLimit, …), which lower into this struct in exactly one
// place, the facade's config. The evaluation sweeps, tvnep-solve and
// tvnep-serve go through the facade. The direct users that remain measure
// or demonstrate single layers: the tvnep-bench -json layer entries, the
// benchmark module and the examples/ programs.
type SolveOptions struct {
	// TimeLimit bounds one solve (0 → none). The greedy algorithm applies
	// it per iteration; sweeps apply it per scenario solve.
	TimeLimit time.Duration
	// NodeLimit bounds the branch-and-bound node count (0 → none).
	NodeLimit int
	// HeuristicEvery runs the rounding heuristic at the root and at every
	// k-th node thereafter (0 → the default of 50; a negative value
	// disables the heuristic entirely, including at the root).
	HeuristicEvery int
	// Workers is read by nothing: every branch-and-bound search runs on
	// the goroutine that calls it, and an evaluation sweep sizes its pool
	// with eval.Config.Workers.
	//
	// Deprecated: setting it has no effect.
	Workers int
	// Progress, when non-nil, receives per-solve progress snapshots
	// (incumbent updates, node counts, LP iteration totals).
	Progress ProgressFunc
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
		HeuristicEvery: o.HeuristicEvery,
	}
	if o.Progress != nil {
		mo.Progress = o.Progress
	}
	return mo
}
