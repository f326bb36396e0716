package solution

import (
	"math"
	"slices"
	"sort"

	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// Interval is one open interval between consecutive event times of a
// schedule, with the substrate allocation Definition 2.1 judges in it.
// Sweep reuses one Interval for every visit: copy what must outlive the
// callback, as Timeline does, and modify nothing.
type Interval struct {
	Start, End, Mid float64
	// Active lists, ascending, the accepted requests running over the
	// interval: Start[r] < Mid < End[r].
	Active []int
	// NodeLoad[s] / LinkLoad[l] are the absolute allocations of the active
	// requests; a flow counts on a link only above numtol.FlowTol.
	NodeLoad []float64
	LinkLoad []float64
}

// Sweep is the event sweep of Definition 2.1. It sorts the start and end
// times of the accepted requests and visits, in time order, every open
// interval between consecutive events that are at least
// numtol.EventCoincide apart, until visit returns false. Requests whose
// hosts or flows do not match the instance's shape take part in the events
// but carry no load; hosts and links out of range are skipped, so malformed
// input never panics. sol must hold one Accepted/Start/End entry per
// request.
//
// Membership is the open-interval midpoint test. Midpoints never decrease,
// so a request joins the running set once the midpoint passes its start
// and leaves it for good once the midpoint reaches its end: each interval
// touches only the requests running over it, not every request. Loads are
// summed in ascending request index into buffers reused across intervals,
// so every value is bit-identical to a rescan of all requests.
//
// Sweep allocates its scratch per call; a caller that sweeps one schedule
// after another keeps a Sweeper instead.
func Sweep(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, visit func(*Interval) bool) {
	var sw Sweeper
	sw.Sweep(sub, reqs, sol, visit)
}

// Sweeper runs Sweep with scratch that lives across calls: its event,
// request-order and running-set buffers and its Interval, whose load
// buffers are reused whenever the substrate size allows. The zero value is
// ready to use. A Sweeper is not safe for concurrent use, and the Interval
// a visit sees is only valid until the Sweeper's next Sweep.
type Sweeper struct {
	events                   []float64
	loaded, byStart, running []int
	iv                       Interval
}

// Sweep is the package-level Sweep over the Sweeper's scratch.
func (sw *Sweeper) Sweep(sub *substrate.Network, reqs []*vnet.Request, sol *Solution, visit func(*Interval) bool) {
	events := sw.events[:0]
	loaded := sw.loaded[:0] // accepted requests with a well-shaped embedding
	for r, req := range reqs {
		if !sol.Accepted[r] {
			continue
		}
		events = append(events, sol.Start[r], sol.End[r])
		if len(sol.Hosts) > r && len(sol.Hosts[r]) == req.G.N && len(sol.Flows) > r {
			loaded = append(loaded, r)
		}
	}
	sw.events, sw.loaded = events, loaded
	sort.Float64s(events)
	// byStart orders loaded by start time, NaN first as in sort.Float64s:
	// a NaN start never fails the midpoint test. Requests tied on start
	// join the running set together, so their order among themselves does
	// not matter.
	byStart := append(sw.byStart[:0], loaded...)
	sw.byStart = byStart
	slices.SortFunc(byStart, func(i, j int) int {
		a, b := sol.Start[i], sol.Start[j]
		switch {
		case a < b || (math.IsNaN(a) && !math.IsNaN(b)):
			return -1
		case b < a || (math.IsNaN(b) && !math.IsNaN(a)):
			return 1
		}
		return 0
	})
	iv := &sw.iv
	*iv = Interval{
		NodeLoad: resize(iv.NodeLoad, sub.NumNodes()),
		LinkLoad: resize(iv.LinkLoad, sub.NumLinks()),
	}
	running := sw.running[:0] // ascending
	next := 0
	for i := 0; i+1 < len(events); i++ {
		if events[i+1]-events[i] < numtol.EventCoincide {
			continue
		}
		iv.Start, iv.End = events[i], events[i+1]
		iv.Mid = (iv.Start + iv.End) / 2
		if math.IsNaN(iv.Mid) {
			// A NaN midpoint fails no comparison: every request runs. Only
			// NaN or ±Inf event times get here, and the running set is
			// left untouched so the finite midpoints stay monotone.
			iv.Active = loaded
		} else {
			for ; next < len(byStart) && !(iv.Mid <= sol.Start[byStart[next]]); next++ {
				r := byStart[next]
				at := sort.SearchInts(running, r)
				running = append(running, 0)
				copy(running[at+1:], running[at:])
				running[at] = r
			}
			sw.running = running
			kept := running[:0]
			for _, r := range running {
				if !(iv.Mid >= sol.End[r]) {
					kept = append(kept, r)
				}
			}
			running = kept
			iv.Active = running
		}
		accumulate(iv, sub, reqs, sol)
		if !visit(iv) {
			return
		}
	}
}

// resize returns buf with length n, reusing its storage when it is large
// enough.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// accumulate fills the interval's load buffers from its active requests.
func accumulate(iv *Interval, sub *substrate.Network, reqs []*vnet.Request, sol *Solution) {
	clear(iv.NodeLoad)
	clear(iv.LinkLoad)
	for _, r := range iv.Active {
		req := reqs[r]
		for v, host := range sol.Hosts[r] {
			if host >= 0 && host < sub.NumNodes() {
				iv.NodeLoad[host] += req.NodeDemand[v]
			}
		}
		for lv := 0; lv < req.G.NumEdges() && lv < len(sol.Flows[r]); lv++ {
			for ls, f := range sol.Flows[r][lv] {
				if f > numtol.FlowTol && ls < sub.NumLinks() {
					iv.LinkLoad[ls] += req.LinkDemand[lv] * f
				}
			}
		}
	}
}
