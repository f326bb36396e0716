package graph

import (
	"reflect"
	"testing"
)

func TestShortestPaths(t *testing.T) {
	// diamond has two 2-hop routes 0→3; edge 0 (0→2) is the lowest-index
	// first hop.
	diamond := NewDigraph(4)
	diamond.AddEdge(0, 2)
	diamond.AddEdge(0, 1)
	diamond.AddEdge(1, 3)
	diamond.AddEdge(2, 3)

	testdata := []struct {
		name     string
		g        *Digraph
		src, dst int
		w        []float64 // nil: ShortestHopPath, else ShortestWeightedPath
		wantPath []int
		wantOK   bool
	}{
		{
			name: "unreachable dst",
			g:    Chain(3),
			src:  2, dst: 0,
			wantOK: false,
		},
		{
			name: "src == dst",
			g:    Chain(3),
			src:  1, dst: 1,
			wantOK: true,
		},
		{
			name: "ties broken by lowest edge index",
			g:    diamond,
			src:  0, dst: 3,
			wantPath: []int{0, 3},
			wantOK:   true,
		},
		{
			// Node (r,c) is r*3+c; BFS reaches 2 through 1 before 4 can
			// offer the other 3-hop route.
			name: "grid 2x3",
			g:    Grid(2, 3),
			src:  0, dst: 5,
			wantPath: []int{0, 4, 8},
			wantOK:   true,
		},
		{
			name: "weights override hop ties",
			g:    diamond,
			src:  0, dst: 3,
			w:        []float64{1, 0, 0, 1},
			wantPath: []int{1, 2},
			wantOK:   true,
		},
	}

	for _, testd := range testdata {
		var path []int
		var ok bool
		if testd.w == nil {
			path, ok = testd.g.ShortestHopPath(testd.src, testd.dst)
		} else {
			path, ok = testd.g.ShortestWeightedPath(testd.src, testd.dst, testd.w)
		}
		if ok != testd.wantOK || len(path) != len(testd.wantPath) ||
			(len(path) > 0 && !reflect.DeepEqual(path, testd.wantPath)) {
			t.Fatalf("%s: path %v ok %v, want %v ok %v", testd.name, path, ok, testd.wantPath, testd.wantOK)
		}
	}
}
