package timewarp

import "sync/atomic"

// atomicStats is the race-clean per-cluster counter block. The owning
// cluster is the only writer; the observability layer's sampled gauges
// (and any mid-run snapshot) read concurrently, so every field is an
// atomic — a snapshot taken at any instant is a consistent set of
// monotone counters (each field individually exact; the set is
// slightly skewed in time, which is what a sampling profiler expects).
type atomicStats struct {
	messages          atomic.Uint64
	antiMessages      atomic.Uint64
	rollbacks         atomic.Uint64
	events            atomic.Uint64
	rolledBackEvents  atomic.Uint64
	checkpoints       atomic.Uint64
	abandonedCycles   atomic.Uint64
	maxStragglerDepth atomic.Uint64 // single-writer max; see noteMax
	queueLen          atomic.Int64  // pending remote events (gauge)

	// batches counts comm.Messages actually sent, batchedEvents the events
	// they carried (ratio = mean batch size).
	batches       atomic.Uint64
	batchedEvents atomic.Uint64
}

// noteMax raises maxStragglerDepth to d if larger. The cluster goroutine
// is the only writer, so load-compare-store is race-free for writers and
// readers see a monotone value.
func (s *atomicStats) noteMax(d uint64) {
	if d > s.maxStragglerDepth.Load() {
		s.maxStragglerDepth.Store(d)
	}
}

// Snapshot reads a point-in-time copy of the counters. Safe mid-run from
// any goroutine.
func (s *atomicStats) Snapshot() Stats {
	return Stats{
		Messages:          s.messages.Load(),
		AntiMessages:      s.antiMessages.Load(),
		Rollbacks:         s.rollbacks.Load(),
		Events:            s.events.Load(),
		RolledBackEvents:  s.rolledBackEvents.Load(),
		Checkpoints:       s.checkpoints.Load(),
		AbandonedCycles:   s.abandonedCycles.Load(),
		MaxStragglerDepth: s.maxStragglerDepth.Load(),
		Batches:           s.batches.Load(),
		BatchedEvents:     s.batchedEvents.Load(),
	}
}

// fields lists every counter of s in wire order — the one enumeration
// the accumulator and the result codec share.
func (s *Stats) fields() [10]*uint64 {
	return [10]*uint64{
		&s.Messages, &s.AntiMessages, &s.Rollbacks, &s.Events, &s.RolledBackEvents,
		&s.Checkpoints, &s.MaxStragglerDepth, &s.Batches, &s.BatchedEvents,
		&s.AbandonedCycles,
	}
}

// add accumulates one cluster's statistics into a run total: counters
// sum, MaxStragglerDepth aggregates by max.
func (s *Stats) add(o Stats) {
	depth := max(s.MaxStragglerDepth, o.MaxStragglerDepth)
	of := o.fields()
	for i, f := range s.fields() {
		*f += *of[i]
	}
	s.MaxStragglerDepth = depth
}
