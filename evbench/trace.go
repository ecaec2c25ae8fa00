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

// span is one timed interval at a layer boundary. Spans of one request
// (one op, or one replayed batch) share Req; Parent is the index of
// the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
// A nil *tracer records nothing, so untraced code paths pay one nil
// check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	count map[string]float64 // work counts recorded at the same boundaries
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), count: make(map[string]float64)}
}

func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a work count (events encoded, deliveries received ...).
func (t *tracer) add(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.count[name] += n
	t.mu.Unlock()
}

// timed records fn as one span.
func (t *tracer) timed(name string, req int64, parent int, fn func()) {
	i := t.begin(name, req, parent)
	fn()
	t.end(i)
}

// durations returns the durations of the named spans in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// total is the summed duration of the named spans in µs.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, for each span of the given name, its duration
// minus the part of its interval its child spans cover, in µs.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		out = append(out, float64(s.End-s.Start-covered(children[i], s.Start, s.End))/1e3)
	}
	return out
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// percentile is the nearest-rank percentile of xs (q in [0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
