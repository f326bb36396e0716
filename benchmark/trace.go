package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (-1 for an
// operation's root span). Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, after the
// run. A nil *recorder records nothing, so untraced code paths pay one nil
// check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID (-1 when r is nil).
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return id
}

// open starts a span whose ID children can name before it ends; close it
// with finish.
func (r *recorder) open(name string, op, parent int) int {
	now := time.Now()
	return r.add(name, op, parent, now, now)
}

// finish sets the end of a span opened with open.
func (r *recorder) finish(id int) {
	if r == nil || id < 0 {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time, indexed by span ID: its
// duration minus the part of its interval that its direct children cover.
// Children that overlap each other are counted once; a child reaching
// outside its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curLo, curHi := int64(0), int64(0)
		open := false
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self times per span name and counts the spans.
func selfByName(spans []span) (total map[string]time.Duration, count map[string]int) {
	self := selfTimes(spans)
	total, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		total[s.Name] += self[i]
		count[s.Name]++
	}
	return total, count
}

// meanSelfMS is the mean self time, in ms, of the spans called name.
func meanSelfMS(total map[string]time.Duration, count map[string]int, name string) float64 {
	return ratio(float64(total[name])/float64(time.Millisecond), float64(count[name]))
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
