package timewarp

import "sync/atomic"

// atomicStats is the race-clean per-cluster counter block. The owning
// cluster is the only writer; the observability layer's sampled gauges
// (and any mid-run snapshot) read concurrently, so every field is an
// atomic — a snapshot taken at any instant is a consistent set of
// monotone counters (each field individually exact; the set is
// slightly skewed in time, which is what a sampling profiler expects).
type atomicStats struct {
	messages atomic.Uint64
	events   atomic.Uint64
	queueLen atomic.Int64 // pending remote events (gauge)

	// batches counts comm.Messages actually sent, batchedEvents the events
	// they carried (ratio = mean batch size).
	batches       atomic.Uint64
	batchedEvents atomic.Uint64
	linkWaits     atomic.Uint64
}

// fields lists the counters of s in Stats.fields order.
func (s *atomicStats) fields() [5]*atomic.Uint64 {
	return [5]*atomic.Uint64{&s.messages, &s.events, &s.batches, &s.batchedEvents, &s.linkWaits}
}

// Snapshot reads a point-in-time copy of the counters. Safe mid-run from
// any goroutine.
func (s *atomicStats) Snapshot() Stats {
	var out Stats
	of := out.fields()
	for i, f := range s.fields() {
		*of[i] = f.Load()
	}
	return out
}

// fields lists every counter of s in wire order — the one enumeration
// the accumulator, the wire codec and the tw_* series share.
func (s *Stats) fields() [5]*uint64 {
	return [5]*uint64{&s.Messages, &s.Events, &s.Batches, &s.BatchedEvents, &s.LinkWaits}
}

// statSeries names the per-cluster metric family of each Stats counter,
// row i for fields()[i]. A host samples its clusters' atomics under these
// names, and a coordinator the last Stats each worker reported, so a
// distributed run's scrape shows the series an in-process run does.
var statSeries = [5]struct{ name, help string }{
	{"tw_messages", "inter-cluster events sent"},
	{"tw_events", "gate evaluations executed"},
	{"tw_batches", "inter-cluster comm messages sent (batches)"},
	{"tw_batch_events", "events carried inside sent batches"},
	{"tw_link_waits", "cycles that waited on a watermark a link held after its sender published"},
}

// add accumulates one cluster's statistics into a run total: every
// counter sums.
func (s *Stats) add(o Stats) {
	of := o.fields()
	for i, f := range s.fields() {
		*f += *of[i]
	}
}
