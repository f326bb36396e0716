package lp

import (
	"math"
	"testing"
)

func TestCanonical(t *testing.T) {
	// a, b, c sum to different doubles in different orders, so the
	// duplicate cases pin the summation order.
	a, b, c := 0.1, 0.2, 0.3
	testdata := []struct {
		name    string
		idx     []int32
		val     []float64
		wantIdx []int32
		wantVal []float64
	}{
		{
			name:    "unsorted",
			idx:     []int32{4, 0, 2},
			val:     []float64{1, 2, 3},
			wantIdx: []int32{0, 2, 4},
			wantVal: []float64{2, 3, 1},
		},
		{
			name:    "duplicates summing to zero",
			idx:     []int32{3, 1, 3},
			val:     []float64{2.5, 1, -2.5},
			wantIdx: []int32{1},
			wantVal: []float64{1},
		},
		{
			name:    "three duplicates in input order",
			idx:     []int32{5, 2, 5, 5},
			val:     []float64{a, 7, b, c},
			wantIdx: []int32{2, 5},
			wantVal: []float64{7, (a + b) + c},
		},
		{
			name:    "three duplicates in permuted order",
			idx:     []int32{5, 5, 2, 5},
			val:     []float64{b, c, 7, a},
			wantIdx: []int32{2, 5},
			wantVal: []float64{7, (b + c) + a},
		},
		{
			name: "empty",
		},
		{
			name: "all zero",
			idx:  []int32{1, 0},
			val:  []float64{0, 0},
		},
	}

	for _, testd := range testdata {
		idxIn := append([]int32(nil), testd.idx...)
		valIn := append([]float64(nil), testd.val...)
		gotIdx, gotVal := Canonical(testd.idx, testd.val)
		if len(gotIdx) != len(testd.wantIdx) || len(gotVal) != len(testd.wantVal) {
			t.Fatalf("%s: Canonical = %v %v, want %v %v", testd.name, gotIdx, gotVal, testd.wantIdx, testd.wantVal)
		}
		for k := range gotIdx {
			if gotIdx[k] != testd.wantIdx[k] || math.Float64bits(gotVal[k]) != math.Float64bits(testd.wantVal[k]) {
				t.Fatalf("%s: Canonical = %v %v, want %v %v", testd.name, gotIdx, gotVal, testd.wantIdx, testd.wantVal)
			}
		}
		for k := range idxIn {
			if testd.idx[k] != idxIn[k] || testd.val[k] != valIn[k] {
				t.Fatalf("%s: Canonical modified its input", testd.name)
			}
		}
	}
	if (a+b)+c == (b+c)+a {
		t.Fatal("the permuted-order case no longer distinguishes summation orders")
	}
}

// TestCanonicalAllocations pins that Canonical allocates only the two
// slices it returns.
func TestCanonicalAllocations(t *testing.T) {
	idx := []int32{9, 3, 7, 3, 1, 9, 0, 4}
	val := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if allocs := testing.AllocsPerRun(50, func() { Canonical(idx, val) }); allocs != 2 {
		t.Fatalf("Canonical allocates %v per call, want 2", allocs)
	}
}
