//go:build !debugchecks

package sparselu

// debugCheckSolve is compiled to a no-op unless the debugchecks build tag
// is set; see debugcheck_on.go for the assertions it enables.
func (f *Factors) debugCheckSolve([]float64, []int32) {}
