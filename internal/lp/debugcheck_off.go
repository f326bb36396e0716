//go:build !debugchecks

package lp

// debugVerifyResult and debugCheckCandidates are compiled to no-ops unless
// the debugchecks build tag is set; see debugcheck_on.go for the assertions
// they enable.
func debugVerifyResult(*Instance, *Result) {}

func debugCheckCandidates(*solver) {}
