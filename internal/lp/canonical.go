package lp

// Canonical returns a copy of the sparse vector Σ val[k]·e_idx[k] sorted by
// index, with duplicate indices merged and exact-zero sums dropped — the
// form AppendRow and AppendColumn store. Duplicates are summed left to right
// in input order (the sort is stable), so equal inputs canonicalize to
// bit-identical vectors. idx and val must have equal length and are not
// modified; the two returned slices are the only allocations.
func Canonical(idx []int32, val []float64) ([]int32, []float64) {
	outIdx := append([]int32(nil), idx...)
	outVal := append([]float64(nil), val...)
	// Insertion sort: stable and allocation-free. The vectors are cut rows
	// and priced columns of a few dozen entries.
	for k := 1; k < len(outIdx); k++ {
		j, v := outIdx[k], outVal[k]
		q := k
		for ; q > 0 && outIdx[q-1] > j; q-- {
			outIdx[q], outVal[q] = outIdx[q-1], outVal[q-1]
		}
		outIdx[q], outVal[q] = j, v
	}
	w := 0
	for k := 0; k < len(outIdx); {
		j, s := outIdx[k], outVal[k]
		for k++; k < len(outIdx) && outIdx[k] == j; k++ {
			s += outVal[k]
		}
		if s != 0 {
			outIdx[w], outVal[w] = j, s
			w++
		}
	}
	return outIdx[:w], outVal[:w]
}
