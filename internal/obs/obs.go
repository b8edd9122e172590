// Package obs is the zero-dependency observability layer of the
// simulator: a metrics registry (atomic counters and gauges, snapshotted
// on demand), a span/event tracer with a bounded
// ring-buffer backend, and exporters — Chrome
// trace-event JSON (chrome://tracing / Perfetto loadable, one track per
// cluster), a Prometheus-style text dump, and a human-readable run
// report.
//
// The layer is built to be safe to leave on and cheap to leave off:
//
//   - a nil *Observer (and nil *Counter/*Gauge handles vended by a nil
//     observer) disables everything; every instrumentation site
//     in the hot paths costs exactly one nil-check branch when disabled;
//   - enabled counters are single uncontended atomic adds, and trace
//     records go into a fixed-capacity ring that overwrites the oldest
//     events instead of growing, so tracing can stay on for arbitrarily
//     long runs.
//
// The Time Warp kernel, the comm substrate, the partitioners and the
// pre-simulation campaign all publish into one Observer per run; the
// CLIs surface it via -trace / -metrics flags.
package obs

import (
	"sync"
	"time"
)

// Observer is the per-run instrumentation hub: one registry, one tracer,
// one clock. A nil Observer is valid and disables all instrumentation.
type Observer struct {
	start time.Time
	reg   *Registry
	tr    *Tracer

	mu       sync.Mutex
	sections []reportSection // extra Report sections, in registration order
}

// Options configures a new Observer. The zero value is usable.
type Options struct {
	// TraceCapacity is the tracer ring size in events (default
	// DefaultTraceCapacity).
	TraceCapacity int
}

// New creates an Observer. The run clock starts now; all trace
// timestamps are relative to it.
func New(opts Options) *Observer {
	if opts.TraceCapacity <= 0 {
		opts.TraceCapacity = DefaultTraceCapacity
	}
	return &Observer{
		start: time.Now(),
		reg:   newRegistry(),
		tr:    NewTracer(opts.TraceCapacity),
	}
}

// Enabled reports whether instrumentation is live (false for nil).
func (o *Observer) Enabled() bool { return o != nil }

// Registry returns the metrics registry (nil for a nil Observer; the
// registry's methods are themselves nil-safe and then vend nil handles).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Start returns the current time for span measurement, or the zero time
// when the observer is disabled — pair it with Span.
func (o *Observer) Start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a complete span on track, begun at t0 (from Start).
// A zero t0 (disabled observer at Start time) records nothing.
func (o *Observer) Span(track int32, name string, t0 time.Time, args ...Arg) {
	if o == nil || t0.IsZero() {
		return
	}
	o.tr.Push(Event{
		Ts:    o.since(t0),
		Dur:   int64(time.Since(t0) / time.Microsecond),
		Track: track,
		Phase: PhaseSpan,
		Name:  name,
		Args:  packArgs(args),
	})
}

// Instant records a point-in-time event on track.
func (o *Observer) Instant(track int32, name string, args ...Arg) {
	if o == nil {
		return
	}
	o.tr.Push(Event{
		Ts:    o.sinceStart(),
		Track: track,
		Phase: PhaseInstant,
		Name:  name,
		Args:  packArgs(args),
	})
}

// Count records a counter sample on track (rendered as a counter track
// in the Chrome trace).
func (o *Observer) Count(track int32, name string, val float64) {
	if o == nil {
		return
	}
	o.tr.Push(Event{
		Ts:    o.sinceStart(),
		Track: track,
		Phase: PhaseCounter,
		Name:  name,
		Args:  packArgs([]Arg{{Key: "value", Val: val}}),
	})
}

// since converts an absolute time into microseconds since the run start,
// clamped at zero.
func (o *Observer) since(t time.Time) int64 {
	d := t.Sub(o.start)
	if d < 0 {
		d = 0
	}
	return int64(d / time.Microsecond)
}

func (o *Observer) sinceStart() int64 { return o.since(time.Now()) }

// Uptime is the time since the observer was created.
func (o *Observer) Uptime() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
}

// Snapshot takes a registry snapshot. Safe to call from any goroutine,
// including mid-run — the registry reads only atomics and sampled
// functions.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.reg.Snapshot()
}

// reportSection is one registered extra section of the run report.
type reportSection struct {
	title  string
	render func() string
}

// AddReportSection appends a named section to the output of Report. The
// renderer runs when Report is called, so analyzers can register a
// closure mid-run and the report picks up their end-of-run summary (the
// causality blame report does this) without obs importing them.
func (o *Observer) AddReportSection(title string, render func() string) {
	if o == nil || render == nil {
		return
	}
	o.mu.Lock()
	o.sections = append(o.sections, reportSection{title: title, render: render})
	o.mu.Unlock()
}

// Events returns a copy of the trace ring in record order (oldest
// retained first) plus the number of events dropped by ring overwrite.
func (o *Observer) Events() (events []Event, dropped uint64) {
	if o == nil {
		return nil, 0
	}
	return o.tr.Events()
}

// EventsSince returns the trace events pushed at or after the cursor
// `since` (0 for the start of the run), without consuming them, plus the
// cursor for the next call and the count of requested events the ring
// had already overwritten. Workers use it to stream their ring to the
// coordinator incrementally.
func (o *Observer) EventsSince(since uint64) (events []Event, next uint64, dropped uint64) {
	if o == nil {
		return nil, since, 0
	}
	return o.tr.drainSince(since)
}

// StartUnixNano returns the wall-clock instant of the observer's run
// start as Unix nanoseconds (0 for nil). All trace timestamps are
// microseconds relative to this instant; the distributed coordinator
// uses the exchanged values to rebase worker trace clocks onto its own.
func (o *Observer) StartUnixNano() int64 {
	if o == nil {
		return 0
	}
	return o.start.UnixNano()
}
