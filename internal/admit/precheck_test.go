package admit

import (
	"sort"
	"testing"

	"tvnep/internal/graph"
	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// block is a committed request in a precheck table row: one virtual node
// per entry of mapping, with its demand, over the schedule [start, end].
type block struct {
	mapping    []int
	demands    []float64
	start, end float64
}

// nodesRequest builds a request with one unlinked virtual node per demand.
func nodesRequest(demands []float64, earliest, duration, latest float64) *vnet.Request {
	return &vnet.Request{
		Name:       "new",
		G:          graph.NewDigraph(len(demands)),
		NodeDemand: demands,
		LinkDemand: []float64{},
		Earliest:   earliest,
		Duration:   duration,
		Latest:     latest,
	}
}

// TestWindowPrecheck holds the residual-capacity window precheck to hand-
// computed verdicts on a 1×2 grid with node capacity 3 and horizon 100,
// so the committed schedules shrink by δ = 100·MIPIntTol + TimeTol.
func TestWindowPrecheck(t *testing.T) {
	const T = 100.0
	delta := T*numtol.MIPIntTol + numtol.TimeTol
	testdata := []struct {
		name      string
		committed []block
		mapping   []int
		demands   []float64
		earliest  float64
		duration  float64
		latest    float64
		reject    bool
	}{
		{
			name:      "committed end touches the new start",
			committed: []block{{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4}},
			mapping:   []int{0}, demands: []float64{2},
			earliest: 4, duration: 2, latest: 6,
			reject: false,
		},
		{
			name:      "committed overlap across the whole window",
			committed: []block{{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4}},
			mapping:   []int{0}, demands: []float64{2},
			earliest: 3, duration: 2, latest: 5,
			reject: true,
		},
		{
			name: "free stretch of exactly d",
			committed: []block{
				{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4},
				{mapping: []int{0}, demands: []float64{2}, start: 6, end: 10},
			},
			mapping: []int{0}, demands: []float64{2},
			earliest: 0, duration: 2, latest: 10,
			reject: false,
		},
		{
			name: "stretch short of d by less than δ",
			committed: []block{
				{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4},
				{mapping: []int{0}, demands: []float64{2}, start: 6 - delta/2, end: 10},
			},
			mapping: []int{0}, demands: []float64{2},
			earliest: 0, duration: 2, latest: 10,
			reject: false,
		},
		{
			name: "stretch short of d by more than 2δ",
			committed: []block{
				{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4},
				{mapping: []int{0}, demands: []float64{2}, start: 6 - 3*delta, end: 10},
			},
			mapping: []int{0}, demands: []float64{2},
			earliest: 0, duration: 2, latest: 10,
			reject: true,
		},
		{
			name:      "two virtual nodes on one host add their demands",
			committed: []block{{mapping: []int{0}, demands: []float64{1}, start: 0, end: 10}},
			mapping:   []int{0, 0}, demands: []float64{1.5, 1.5},
			earliest: 0, duration: 2, latest: 10,
			reject: true,
		},
		{
			name:      "two virtual nodes on one host within capacity",
			committed: []block{{mapping: []int{0}, demands: []float64{1}, start: 0, end: 10}},
			mapping:   []int{0, 0}, demands: []float64{1, 1},
			earliest: 0, duration: 2, latest: 10,
			reject: false,
		},
		{
			name: "blocks on different hosts add up",
			committed: []block{
				{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4},
				{mapping: []int{1}, demands: []float64{2}, start: 4, end: 8},
			},
			mapping: []int{0, 1}, demands: []float64{2, 2},
			earliest: 0, duration: 2, latest: 8,
			reject: true,
		},
		{
			name:      "a block on one host alone leaves a start",
			committed: []block{{mapping: []int{0}, demands: []float64{2}, start: 0, end: 4}},
			mapping:   []int{0, 1}, demands: []float64{2, 2},
			earliest: 0, duration: 2, latest: 8,
			reject: false,
		},
		{
			name: "a committed request on both hosts counts on each",
			committed: []block{
				{mapping: []int{0, 1}, demands: []float64{2, 2}, start: 0, end: 4},
				{mapping: []int{1}, demands: []float64{2}, start: 4, end: 8},
			},
			mapping: []int{1}, demands: []float64{2},
			earliest: 0, duration: 2, latest: 8,
			reject: true,
		},
		{
			name: "committed requests outside the window are ignored",
			committed: []block{
				{mapping: []int{0}, demands: []float64{3}, start: 0, end: 10},
				{mapping: []int{0}, demands: []float64{3}, start: 20, end: 30},
			},
			mapping: []int{0}, demands: []float64{2},
			earliest: 10, duration: 2, latest: 20,
			reject: false,
		},
		{
			name:    "empty substrate, demand above capacity",
			mapping: []int{0}, demands: []float64{3 + 2*numtol.CapTol},
			earliest: 0, duration: 2, latest: 10,
			reject: true,
		},
		{
			name:    "empty substrate, demand at capacity",
			mapping: []int{0}, demands: []float64{3},
			earliest: 0, duration: 2, latest: 10,
			reject: false,
		},
	}

	for _, testd := range testdata {
		eng, err := New(Config{Sub: substrate.Grid(1, 2, 3, 5), Horizon: T})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range testd.committed {
			req := nodesRequest(c.demands, c.start, c.end-c.start, c.end)
			eng.active = append(eng.active, &record{req: req, mapping: c.mapping,
				decided: Decision{Accepted: true, Start: c.start, End: c.end}})
		}
		req := nodesRequest(testd.demands, testd.earliest, testd.duration, testd.latest)
		if got := eng.precheckRejects(req, testd.mapping, eng.overlapping(req)); got != testd.reject {
			t.Errorf("%s: precheck rejects %v, want %v", testd.name, got, testd.reject)
		}
	}
}

// TestPrecheckRejectionsProved replays the default-preset traces of seeds 3
// and 7 (a 1000-request prefix under -short) and re-proves every precheck
// rejection by brute force, without the engine's sweep: with every accepted
// request before it shrunk by δ, each candidate start in [t^s, t^e − d] — t^s,
// t^e − d and every shrunk committed boundary in between, which include the
// least free start if there is one — must meet a time in its schedule where
// a host's committed load, recounted from scratch, plus the request's demand
// on that host exceeds the capacity by more than CapTol.
func TestPrecheckRejectionsProved(t *testing.T) {
	n := 4000
	if testing.Short() {
		n = 1000
	}
	for _, seed := range []int64{3, 7} {
		sc := trace(t, n, seed)
		ds := replay(t, sc, Config{}).Decisions()
		delta := sc.Horizon*numtol.MIPIntTol + numtol.TimeTol
		proved := 0
		for i, d := range ds {
			if d.Stats.Tier != TierPrecheck {
				continue
			}
			req, mapping := sc.Requests[i], sc.Mapping[i]
			lo, hi := req.Earliest, req.LatestStart()
			// The committed requests whose shrunk schedule meets the window.
			var live []int
			for j := 0; j < i; j++ {
				if ds[j].Accepted && ds[j].Start+delta < req.Latest && ds[j].End-delta > req.Earliest {
					live = append(live, j)
				}
			}
			hostLoad := func(s int, at float64) float64 {
				load := 0.0
				for _, j := range live {
					if ds[j].Start+delta < at && at < ds[j].End-delta {
						for w, h := range sc.Mapping[j] {
							if h == s {
								load += sc.Requests[j].NodeDemand[w]
							}
						}
					}
				}
				return load
			}
			overloaded := func(at float64) bool {
				for _, s := range mapping {
					demand := 0.0
					for w, h := range mapping {
						if h == s {
							demand += req.NodeDemand[w]
						}
					}
					if hostLoad(s, at)+demand > sc.Substrate.NodeCap[s]+numtol.CapTol {
						return true
					}
				}
				return false
			}
			bounds := []float64{}
			for _, j := range live {
				bounds = append(bounds, ds[j].Start+delta, ds[j].End-delta)
			}
			candidates := append([]float64{lo, hi}, bounds...)
			for _, start := range candidates {
				if start < lo || start > hi {
					continue
				}
				end := start + req.Duration
				// Loads are constant between consecutive boundaries, so the
				// midpoints of the pieces of (start, end) cover every load.
				cuts := []float64{start, end}
				for _, b := range bounds {
					if start < b && b < end {
						cuts = append(cuts, b)
					}
				}
				sort.Float64s(cuts)
				blocked := false
				for k := 0; k+1 < len(cuts) && !blocked; k++ {
					if cuts[k] < cuts[k+1] {
						blocked = overloaded((cuts[k] + cuts[k+1]) / 2)
					}
				}
				if !blocked {
					t.Fatalf("seed %d decision %d: precheck rejected, but start %v in [%v, %v] meets no overload",
						seed, i, start, lo, hi)
				}
			}
			proved++
		}
		t.Logf("seed %d: %d precheck rejections proved over %d decisions", seed, proved, len(ds))
		if proved == 0 {
			t.Fatalf("seed %d: no precheck rejection to prove", seed)
		}
	}
}
