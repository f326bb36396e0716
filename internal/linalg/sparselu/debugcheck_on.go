//go:build debugchecks

package sparselu

import "fmt"

// debugCheckSolve runs after every Ftran and Btran and panics unless the
// solve left its scratch clean — the step and position marks, the eta marks
// and the per-step values all back to zero — and the returned pattern nz is
// strictly ascending and covers every nonzero of the result v. It is
// compiled in only under the debugchecks build tag
// (`go test -tags debugchecks ./...`); it does not allocate unless it fails,
// so the allocation pins hold with the tag on.
func (f *Factors) debugCheckSolve(v []float64, nz []int32) {
	for w, word := range f.marks {
		if word != 0 {
			panic(fmt.Sprintf("sparselu debugchecks: mark word %d left as %#x", w, word))
		}
	}
	for k, x := range f.scratch {
		if x != 0 {
			panic(fmt.Sprintf("sparselu debugchecks: step scratch %d left as %v", k, x))
		}
	}
	for t := 1; t < len(nz); t++ {
		if nz[t] <= nz[t-1] {
			panic(fmt.Sprintf("sparselu debugchecks: pattern not ascending at %d", t))
		}
	}
	j := 0
	for i, x := range v {
		for j < len(nz) && int(nz[j]) < i {
			j++
		}
		if x != 0 && (j == len(nz) || int(nz[j]) != i) {
			panic(fmt.Sprintf("sparselu debugchecks: nonzero %v at %d missing from the pattern", x, i))
		}
	}
}
