package lp

import (
	"math"
	"math/rand"
	"testing"
)

// mapMergeRow is the reference row canonicalization AddRow used to run
// through a map: entries in first-occurrence order, duplicates summed left
// to right starting from zero, entries that sum to zero dropped.
func mapMergeRow(idx []int32, val []float64) ([]int32, []float64) {
	merged := map[int32]float64{}
	var order []int32
	for k, j := range idx {
		if _, seen := merged[j]; !seen {
			order = append(order, j)
		}
		merged[j] += val[k]
	}
	var ri []int32
	var rv []float64
	for _, j := range order {
		if v := merged[j]; v != 0 {
			ri = append(ri, j)
			rv = append(rv, v)
		}
	}
	return ri, rv
}

// TestAddRowMatchesMapMerge compares every row AddRow stores with the
// reference merge, bit for bit, over random rows heavy in duplicates,
// cancellations and signed zeros, interleaved with new columns.
func TestAddRowMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewProblem()
	var wantIdx [][]int32
	var wantVal [][]float64
	for r := 0; r < 400; r++ {
		if r%25 == 0 {
			for k := 0; k < 5; k++ {
				p.AddCol(0, 0, 1)
			}
		}
		n := rng.Intn(12)
		idx := make([]int32, n)
		val := make([]float64, n)
		for k := range idx {
			idx[k] = int32(rng.Intn(p.NumCols()))
			switch rng.Intn(6) {
			case 0:
				val[k] = 0
			case 1:
				val[k] = math.Copysign(0, -1)
			case 2:
				val[k] = 0.1 * float64(rng.Intn(5)-2) // cancels often
			default:
				val[k] = rng.NormFloat64()
			}
		}
		ri, rv := mapMergeRow(idx, val)
		wantIdx, wantVal = append(wantIdx, ri), append(wantVal, rv)
		if got := p.AddRow(idx, val, math.Inf(-1), 1); got != r {
			t.Fatalf("AddRow returned row %d, want %d", got, r)
		}
	}
	for r := range wantIdx {
		idx, val := p.Row(r)
		if len(idx) != len(wantIdx[r]) || len(val) != len(idx) {
			t.Fatalf("row %d: %v %v, want %v %v", r, idx, val, wantIdx[r], wantVal[r])
		}
		for k := range idx {
			if idx[k] != wantIdx[r][k] || math.Float64bits(val[k]) != math.Float64bits(wantVal[r][k]) {
				t.Fatalf("row %d entry %d: (%d, %v), want (%d, %v)", r, k, idx[k], val[k], wantIdx[r][k], wantVal[r][k])
			}
		}
	}
}
