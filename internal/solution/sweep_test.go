package solution

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tvnep/internal/numtol"
	"tvnep/internal/substrate"
	"tvnep/internal/vnet"
)

// rescan is the reference the sweep must reproduce: sort the events and,
// for every interval, rescan all requests in index order with the
// open-interval midpoint test, summing loads into fresh buffers.
func rescan(sub *substrate.Network, reqs []*vnet.Request, sol *Solution) []Interval {
	var events []float64
	for r := range reqs {
		if sol.Accepted[r] {
			events = append(events, sol.Start[r], sol.End[r])
		}
	}
	sort.Float64s(events)
	var out []Interval
	for i := 0; i+1 < len(events); i++ {
		if events[i+1]-events[i] < numtol.EventCoincide {
			continue
		}
		iv := Interval{
			Start: events[i], End: events[i+1], Mid: (events[i] + events[i+1]) / 2,
			NodeLoad: make([]float64, sub.NumNodes()),
			LinkLoad: make([]float64, sub.NumLinks()),
		}
		for r, req := range reqs {
			if !sol.Accepted[r] || iv.Mid <= sol.Start[r] || iv.Mid >= sol.End[r] {
				continue
			}
			if len(sol.Hosts) <= r || len(sol.Hosts[r]) != req.G.N || len(sol.Flows) <= r {
				continue
			}
			iv.Active = append(iv.Active, r)
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
		out = append(out, iv)
	}
	return out
}

// byteReader hands out the bytes of a fuzz input, then zeros forever, so
// every byte string decodes to some schedule.
type byteReader []byte

func (b *byteReader) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// timeOffsets straddle numtol.EventCoincide so that decoded event times
// coincide exactly, nearly, and not at all.
var timeOffsets = [16]float64{0, 0, 0, 0, 0, 0, 0, 0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-9, 1e-6, 0.1, 1.0 / 3}

// decodeTime maps a byte to a time on a coarse half-unit grid plus an
// offset; the top three codes are NaN, +Inf and -Inf.
func decodeTime(c byte) float64 {
	switch c {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Inf(1)
	case 0xfd:
		return math.Inf(-1)
	}
	return float64(c&0x0f)*0.5 + timeOffsets[c>>4]
}

// flowValues covers unit and fractional flows, values on both sides of
// numtol.FlowTol, and out-of-range fractions.
var flowValues = [16]float64{0, 0, 0, 0, 1, 1, 0.5, 0.25, 0.75, 1e-6, 2e-5, 1e-9, 0.1, 0.3, 1.5, -0.25}

// decodeSchedule turns a byte string into a substrate, requests and a
// schedule whose Accepted/Start/End slices match the requests (the sweep's
// contract) but which is otherwise arbitrary: overlapping and coincident
// events, non-finite times, negative durations, hosts and flow vectors
// out of range, and missing host or flow assignments.
func decodeSchedule(data []byte) (*substrate.Network, []*vnet.Request, *Solution) {
	in := byteReader(data)
	head := in.next()
	sub := substrate.Grid(1+int(head&1), 1+int(head>>1&3), 4, 4)
	k := int(in.next() % 12)
	sol := &Solution{
		Accepted: make([]bool, k),
		Start:    make([]float64, k),
		End:      make([]float64, k),
	}
	var reqs []*vnet.Request
	for r := 0; r < k; r++ {
		shape := in.next()
		req := vnet.Chain("r", 1+int(shape&3)%3, 1, 1)
		for v := range req.NodeDemand {
			req.NodeDemand[v] = float64(in.next()%8) * 0.375
		}
		for lv := range req.LinkDemand {
			req.LinkDemand[lv] = float64(in.next()%8) * 0.625
		}
		reqs = append(reqs, req)
		sol.Accepted[r] = shape&4 == 0
		sol.Start[r] = decodeTime(in.next())
		sol.End[r] = sol.Start[r] + decodeTime(in.next()) - 1
		hosts := make([]int, req.G.N)
		if shape&16 != 0 {
			hosts = hosts[:len(hosts)-1]
		}
		for v := range hosts {
			hosts[v] = int(in.next()%byte(sub.NumNodes()+2)) - 1
		}
		flows := make([][]float64, req.G.NumEdges())
		for lv := range flows {
			flows[lv] = make([]float64, max(0, sub.NumLinks()+int(shape>>5&1)-int(shape>>6&1)))
			for ls := range flows[lv] {
				flows[lv][ls] = flowValues[in.next()&0x0f]
			}
		}
		sol.Hosts = append(sol.Hosts, hosts)
		sol.Flows = append(sol.Flows, flows)
	}
	// Occasionally drop the host or flow assignments of a request suffix.
	if cut := int(in.next()); cut < 2*k {
		if cut%2 == 0 {
			sol.Hosts = sol.Hosts[:cut/2]
		} else {
			sol.Flows = sol.Flows[:cut/2]
		}
	}
	return sub, reqs, sol
}

// sameIntervals compares two interval lists bit for bit.
func sameIntervals(t *testing.T, got, want []Interval) {
	t.Helper()
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if len(got) != len(want) {
		t.Fatalf("sweep visits %d intervals, rescan %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(bits(g.Start, g.End, g.Mid), bits(w.Start, w.End, w.Mid)) {
			t.Fatalf("interval %d: sweep (%v,%v) mid %v, rescan (%v,%v) mid %v", i, g.Start, g.End, g.Mid, w.Start, w.End, w.Mid)
		}
		if !reflect.DeepEqual(g.Active, w.Active) {
			t.Fatalf("interval %d (%v,%v): sweep active %v, rescan %v", i, w.Start, w.End, g.Active, w.Active)
		}
		if !reflect.DeepEqual(bits(g.NodeLoad...), bits(w.NodeLoad...)) {
			t.Fatalf("interval %d (%v,%v): sweep node loads %v, rescan %v", i, w.Start, w.End, g.NodeLoad, w.NodeLoad)
		}
		if !reflect.DeepEqual(bits(g.LinkLoad...), bits(w.LinkLoad...)) {
			t.Fatalf("interval %d (%v,%v): sweep link loads %v, rescan %v", i, w.Start, w.End, g.LinkLoad, w.LinkLoad)
		}
	}
}

// TestSweepMatchesRescan drives random schedules through the sweep and
// the reference rescan: intervals, active sets and loads must agree bit
// for bit.
func TestSweepMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		if trial%2 == 0 {
			// Keep half the schedules finite: remap the non-finite time
			// codes.
			for i := range data {
				if data[i] >= 0xfd {
					data[i] &= 0x7f
				}
			}
		}
		sub, reqs, sol := decodeSchedule(data)
		sameIntervals(t, Timeline(sub, reqs, sol), rescan(sub, reqs, sol))
	}
}

// TestSweeperReuseMatchesRescan runs one Sweeper over a series of random
// schedules of changing substrate and request counts, some stopped early:
// scratch left by an earlier sweep must not leak into a later one.
func TestSweeperReuseMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sw Sweeper
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		sub, reqs, sol := decodeSchedule(data)
		want := rescan(sub, reqs, sol)
		stop := len(want)
		if trial%3 == 0 {
			stop = 1 + rng.Intn(len(want)+1)
		}
		var got []Interval
		sw.Sweep(sub, reqs, sol, func(iv *Interval) bool {
			got = append(got, Interval{
				Start: iv.Start, End: iv.End, Mid: iv.Mid,
				Active:   append([]int(nil), iv.Active...),
				NodeLoad: append([]float64(nil), iv.NodeLoad...),
				LinkLoad: append([]float64(nil), iv.LinkLoad...),
			})
			return len(got) < stop
		})
		sameIntervals(t, got, want[:min(stop, len(want))])
	}
}

// TestSweepStopsEarly checks that visit returning false ends the sweep.
func TestSweepStopsEarly(t *testing.T) {
	sub, reqs, sol := timelineFixture()
	visits := 0
	Sweep(sub, reqs, sol, func(*Interval) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("%d visits after the visitor stopped, want 1", visits)
	}
}

// FuzzSweepMatchesRescan is the fuzzing form of TestSweepMatchesRescan:
// any byte string decodes to a schedule, and the sweep must match the
// rescan on it bit for bit.
func FuzzSweepMatchesRescan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 0, 8, 8, 2, 3, 0, 1, 4, 4, 0, 8, 8, 2, 5, 0, 1})
	f.Add([]byte{7, 3, 0, 8, 8, 0xff, 3, 0, 1, 0, 8, 8, 0xfd, 0xfe, 1, 2, 0x40, 8, 8, 0x80, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, reqs, sol := decodeSchedule(data)
		sameIntervals(t, Timeline(sub, reqs, sol), rescan(sub, reqs, sol))
	})
}
