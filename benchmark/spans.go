package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer times every call the benchmark makes into a layer. With keep
// false (the untraced run) it hands back durations and stores nothing;
// with keep true it also records one span per call, in memory, and
// writeChrome flushes them when the workload ends.
type tracer struct {
	keep  bool
	epoch time.Time

	mu    sync.Mutex // worker goroutines of soc_dist_split open spans too
	rep   int
	spans []span
}

// span is one recorded call: the layer function's name, when it ran, the
// span that caused it, the repetition it belongs to and the goroutine
// track it ran on (0 = the benchmark's main goroutine).
type span struct {
	Name       string
	ID, Parent int
	Rep, Track int
	Start, End time.Duration // since the tracer's epoch
}

// noSpan is the parent of a root span.
const noSpan = -1

// open is a span in flight.
type open struct {
	id    int
	start time.Time
}

func newTracer(keep bool) *tracer {
	return &tracer{keep: keep, epoch: time.Now()}
}

// setRep tags the spans opened from now on with repetition r.
func (t *tracer) setRep(r int) {
	t.mu.Lock()
	t.rep = r
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent open, track int) open {
	o := open{id: noSpan, start: time.Now()}
	if t.keep {
		t.mu.Lock()
		o.id = len(t.spans)
		t.spans = append(t.spans, span{
			Name: name, ID: o.id, Parent: parent.id, Rep: t.rep, Track: track,
			Start: o.start.Sub(t.epoch),
		})
		t.mu.Unlock()
	}
	return o
}

func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	if t.keep {
		t.mu.Lock()
		t.spans[o.id].End = now.Sub(t.epoch)
		t.mu.Unlock()
	}
	return now.Sub(o.start)
}

// call runs f as a span on the main track and returns its duration.
func (t *tracer) call(name string, parent open, f func() error) (time.Duration, error) {
	o := t.begin(name, parent, 0)
	err := f()
	return t.end(o), err
}

// root is the parent handed to top-level spans.
var root = open{id: noSpan}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap one another: the
// distributed workload's workers run side by side).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < upTo {
				lo = upTo
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSeconds sums the self-times of repetition rep by span name, in
// seconds.
func layerSeconds(spans []span, self []time.Duration, rep int) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		if s.Rep == rep {
			out[s.Name] += self[i].Seconds()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "rep": s.Rep,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
