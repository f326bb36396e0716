package model

import "tvnep/internal/mip"

// Status is the typed outcome of a model solve: the search's own outcome
// vocabulary, so a Solution's Status is the search's Result.Status.
type Status = mip.Status

// The outcomes a solve reports; see mip.Status.
const (
	StatusOptimal    = mip.StatusOptimal
	StatusFeasible   = mip.StatusFeasible
	StatusInfeasible = mip.StatusInfeasible
	StatusUnbounded  = mip.StatusUnbounded
	StatusTimeLimit  = mip.StatusTimeLimit
	StatusCancelled  = mip.StatusCancelled
)
