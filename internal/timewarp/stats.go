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

// fields lists the counters of s in Stats.fields order.
func (s *atomicStats) fields() [9]*atomic.Uint64 {
	return [9]*atomic.Uint64{
		&s.messages, &s.antiMessages, &s.rollbacks, &s.events, &s.rolledBackEvents,
		&s.checkpoints, &s.maxStragglerDepth, &s.batches, &s.batchedEvents,
	}
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
func (s *Stats) fields() [9]*uint64 {
	return [9]*uint64{
		&s.Messages, &s.AntiMessages, &s.Rollbacks, &s.Events, &s.RolledBackEvents,
		&s.Checkpoints, &s.MaxStragglerDepth, &s.Batches, &s.BatchedEvents,
	}
}

// statSeries names the per-cluster metric family of each Stats counter,
// row i for fields()[i]. A host samples its clusters' atomics under these
// names, and a coordinator the last Stats each worker reported, so a
// distributed run's scrape shows the series an in-process run does.
var statSeries = [9]struct{ name, help string }{
	{"tw_messages", "positive inter-cluster events sent"},
	{"tw_anti_messages", "cancellations sent"},
	{"tw_rollbacks", "rollback occurrences"},
	{"tw_events", "gate evaluations executed (incl. re-execution)"},
	{"tw_rolled_back_events", "evaluations undone by rollbacks"},
	{"tw_checkpoints", "rollback records written, one per executed cycle"},
	{"tw_max_straggler_depth", "deepest single rollback in cycles"},
	{"tw_batches", "inter-cluster comm messages sent (batches)"},
	{"tw_batch_events", "events carried inside sent batches"},
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
