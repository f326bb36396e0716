package solution

import (
	"fmt"
	"io"

	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// PeakNodeUtil returns the maximum node utilization (load/capacity) of the
// interval, or 0 for an empty substrate.
func (seg *Interval) PeakNodeUtil(sub *substrate.Network) float64 {
	peak := 0.0
	for s, load := range seg.NodeLoad {
		if c := sub.NodeCap[s]; c > 0 {
			if u := load / c; u > peak {
				peak = u
			}
		}
	}
	return peak
}

// PeakLinkUtil returns the maximum link utilization of the interval.
func (seg *Interval) PeakLinkUtil(sub *substrate.Network) float64 {
	peak := 0.0
	for l, load := range seg.LinkLoad {
		if c := sub.LinkCap[l]; c > 0 {
			if u := load / c; u > peak {
				peak = u
			}
		}
	}
	return peak
}

// Timeline computes the piecewise-constant substrate utilization of a
// solution: the intervals of the Definition 2.1 event sweep, copied out of
// Sweep, so it shows exactly the loads Check judges. Only accepted requests
// contribute.
func Timeline(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) []Interval {
	var out []Interval
	Sweep(sub, reqs, sol, func(iv *Interval) bool {
		out = append(out, Interval{
			Start:    iv.Start,
			End:      iv.End,
			Mid:      iv.Mid,
			Active:   append([]int(nil), iv.Active...),
			NodeLoad: append([]float64(nil), iv.NodeLoad...),
			LinkLoad: append([]float64(nil), iv.LinkLoad...),
		})
		return true
	})
	return out
}

// WriteTimeline renders the timeline as an aligned text table (one row per
// segment) — a quick way to eyeball a schedule.
func WriteTimeline(w io.Writer, sub *substrate.Network, reqs []*vnet.Request, sol *Solution) {
	segs := Timeline(sub, reqs, sol)
	fmt.Fprintf(w, "%10s %10s %8s %14s %14s  %s\n",
		"start", "end", "active", "peak node util", "peak link util", "requests")
	for _, seg := range segs {
		names := make([]string, 0, len(seg.Active))
		for _, r := range seg.Active {
			names = append(names, reqs[r].Name)
		}
		fmt.Fprintf(w, "%10.3f %10.3f %8d %13.1f%% %13.1f%%  %v\n",
			seg.Start, seg.End, len(seg.Active),
			100*seg.PeakNodeUtil(sub), 100*seg.PeakLinkUtil(sub), names)
	}
}
