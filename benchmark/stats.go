package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"tvnep/internal/stats"
)

// minBeyond is the number of samples that must lie beyond a reported tail
// percentile: a p99 over 500 samples rests on 5 points and is not reported.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// beyond returns how many of n samples lie strictly above the q-quantile
// rank, i.e. floor(n·(1−q)) with a guard against float round-off.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// tailQuantile returns want when at least minBeyond of n samples lie beyond
// it, and otherwise the highest rung of tailLadder below want that has them.
// It returns 0.5 when even the median has fewer than minBeyond samples
// beyond it; the caller then reports a median-only tail.
func tailQuantile(n int, want float64) float64 {
	if beyond(n, want) >= minBeyond {
		return want
	}
	for _, q := range tailLadder {
		if q < want && beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// median returns the middle value of the sample (NaN when empty).
func median(sample []float64) float64 { return stats.Quantile(sample, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sumDur returns the total of the durations in seconds.
func sumDur(ds []time.Duration) float64 {
	s := 0.0
	for _, d := range ds {
		s += d.Seconds()
	}
	return s
}

// ratio returns num/den, or 0 when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics in insertion order for the human-readable
// lines; the result line is a JSON object keyed by name.
type metricSet struct {
	names  []string
	values map[string]metric
	notes  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note is printed beside it (sample counts, the
// percentile a tail was taken at).
func (m *metricSet) set(name string, value float64, unit, note string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m.values[name] = metric{Value: value, Unit: unit}
	m.notes[name] = note
}

// runtimeSample is a snapshot of the runtime counters the benchmark reads.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocObjects    uint64
	allocBytes      uint64
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocObjects: s[2].Value.Uint64(),
		allocBytes:   s[3].Value.Uint64(),
	}
}

// runtimeDelta is what happened in the runtime between two samples.
type runtimeDelta struct {
	gcCPUFrac          float64
	allocs, allocBytes float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
		allocs:     float64(b.allocObjects - a.allocObjects),
		allocBytes: float64(b.allocBytes - a.allocBytes),
	}
}

// liveHeapMB collects garbage and returns the live heap in MiB. The caller
// keeps the system under test reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// processCPU returns the CPU time (user + system) the process has used. On
// a virtual machine whose host steals cycles it stays steady where wall
// time does not: stolen time is not charged to the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timings are the timing measurements of an untraced run.
type timings struct {
	op        string          // what one operation is, for the notes
	cpus      []time.Duration // process CPU time per operation
	walls     []time.Duration // wall time per operation
	wall      time.Duration   // wall time of the timed window
	tailQ     float64         // tail percentile wanted
	setups    []float64       // process CPU seconds per set-up
	setupWhat string          // what a set-up does, for the note
}

// setTimings sets the timing metrics. They are charged in process CPU
// time, which stays steady when a shared host steals cycles from the
// virtual machine; the wall-clock figures, which do not, go to the env
// line and to the traced run's wall.* metrics.
func setTimings(rep *report, t timings) {
	cpu, wall := ms(t.cpus), ms(t.walls)
	n := len(cpu)
	tq := tailQuantile(n, t.tailQ)
	m := rep.metrics
	m.set("ops_per_cpu_s", ratio(float64(n), sumDur(t.cpus)), "1/cpu-s", fmt.Sprintf("%ss=%d in %.2f CPU-s", t.op, n, sumDur(t.cpus)))
	m.set("op_cpu_p50_ms", median(cpu), "ms", fmt.Sprintf("process CPU per %s, n=%d", t.op, n))
	m.set("op_cpu_tail_ms", stats.Quantile(cpu, tq), "ms", fmt.Sprintf("p%g of n=%d, %d beyond", 100*tq, n, beyond(n, tq)))
	m.set("setup_s", median(t.setups), "s", fmt.Sprintf("median process CPU of %d set-ups: %s", len(t.setups), t.setupWhat))
	rep.env = append(rep.env,
		fmt.Sprintf("wall_ops_per_s=%.4g", ratio(float64(n), sumDur(t.walls))),
		fmt.Sprintf("wall_p50_ms=%.4g", median(wall)),
		fmt.Sprintf("wall_p%g_ms=%.4g", 100*tq, stats.Quantile(wall, tq)))
}

// setWallLayers sets the wall-clock metrics of a traced run from the wall
// times of its untraced operations.
func setWallLayers(m *metricSet, walls []time.Duration, tailQ float64) {
	wall := ms(walls)
	n := len(wall)
	tq := tailQuantile(n, tailQ)
	m.set("wall.ops_per_s", ratio(float64(n), sumDur(walls)), "1/s", fmt.Sprintf("untraced operations, n=%d", n))
	m.set("wall.op_p50_ms", median(wall), "ms", fmt.Sprintf("untraced operations, n=%d", n))
	m.set("wall.op_tail_ms", stats.Quantile(wall, tq), "ms", fmt.Sprintf("p%g of n=%d, %d beyond", 100*tq, n, beyond(n, tq)))
}
