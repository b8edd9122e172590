package timewarp

import (
	"fmt"
	"time"
)

// sample is one observation of a run, taken by whoever drives it: Run's
// watcher reads it from the host's shared atomics, the coordinator folds
// it from one round of worker reports.
type sample struct {
	// sent and absorbed are the run-wide cumulative message counters.
	sent, absorbed uint64
	// progress is every cluster's published cycle, indexed by cluster id.
	progress []uint64
	// complete is false until every cluster's progress has been observed
	// at least once (a distributed run's first rounds).
	complete     bool
	maxStraggler uint64
	now          time.Time
}

// verdict is what the tracker concludes from one sample.
type verdict struct {
	// active: some counter or cluster moved since the previous sample.
	active bool
	// frozen: this sample and the previous one agree on every message
	// counter and published cycle, and every sent message is absorbed.
	frozen  bool
	minProg uint64
	// gvt is the established GVT after this sample; advanced marks the
	// samples that raised it.
	gvt       uint64
	advanced  bool
	terminate bool
	// abort, when non-empty, is the diagnosis the run must end with: a
	// stall or a livelock.
	abort string
}

// quiescence is the one freeze → GVT → termination decision procedure of
// the kernel, shared by the in-process watcher and the distributed
// coordinator. It is a pure state machine over samples: no clocks, no
// atomics, no I/O.
//
// The safety argument, stated once, for both drivers. If across two
// consecutive samples (a) no message was sent, (b) every sent message was
// absorbed and (c) no cluster's published cycle changed, then no
// absorption — hence no rollback — happened in between either: absorbed is
// capped by sent and already equals it. Nothing was in flight, on the wire
// between processes included: a message counts as sent before any
// transport carries it and as absorbed only after its receiver read and
// applied it, so a frame on the wire is a sent message not yet absorbed.
// The progress minimum therefore held at a provably quiescent instant.
// A cluster publishes its cycle, a lower bound on the cycle (T) of anything
// it will still send, and any future rollback chain starts from such a
// send, so no rollback can ever target a cycle below that minimum: it is a
// safe fossil-collection line, and "all clusters finished + quiescent",
// seen twice, is safe termination. The reads of one sample need not be
// simultaneous — the argument uses only monotone counters and the kernel's
// update order — so Run's watcher, reading atomics one by one, and the
// coordinator, summing worker reports taken at different instants, fill
// the same sample.
type quiescence struct {
	cycles       uint64
	stallTimeout time.Duration
	runTimeout   time.Duration
	started      time.Time
	lastActivity time.Time

	prev     sample // progress is the tracker's own copy
	havePrev bool
	gvt      uint64
	// doneStreak counts consecutive quiescent all-done samples; the second
	// one terminates the run.
	doneStreak int
	// violations lists kernel invariants the samples broke (a quiescent
	// minimum below the established GVT).
	violations []string
}

func newQuiescence(k int, cycles uint64, stallTimeout, runTimeout time.Duration, now time.Time) *quiescence {
	return &quiescence{
		cycles:       cycles,
		stallTimeout: stallTimeout,
		runTimeout:   runTimeout,
		started:      now,
		lastActivity: now,
		prev:         sample{progress: make([]uint64, k)},
	}
}

// step consumes one sample and decides.
func (q *quiescence) step(s sample) verdict {
	moved := !q.havePrev || s.complete != q.prev.complete
	minProg, allDone := s.progress[0], s.complete
	for c, p := range s.progress {
		if p != q.prev.progress[c] {
			moved = true
		}
		minProg = min(minProg, p)
		if p < q.cycles {
			allDone = false
		}
	}
	moved = moved || s.sent != q.prev.sent || s.absorbed != q.prev.absorbed
	v := verdict{minProg: minProg, active: moved}
	v.frozen = !moved && s.complete && s.sent == s.absorbed
	if v.active {
		q.lastActivity = s.now
	}
	copy(q.prev.progress, s.progress)
	s.progress = q.prev.progress
	q.prev, q.havePrev = s, true

	if v.frozen {
		// GVT advances only at quiescent instants and must never regress —
		// the invariant fossil collection stands on.
		if minProg > q.gvt {
			q.gvt, v.advanced = minProg, true
		} else if minProg < q.gvt {
			q.violations = append(q.violations, fmt.Sprintf(
				"GVT regression: quiescent minimum %d below established GVT %d", minProg, q.gvt))
		}
	}
	if v.frozen && allDone {
		q.doneStreak++
		v.terminate = q.doneStreak >= 2
	} else {
		q.doneStreak = 0
	}
	v.gvt = q.gvt
	if v.terminate {
		return v
	}

	// Everything is quiet yet the run has not terminated — a wedged cluster
	// or a lost message. Abort so callers get a diagnosis instead of a hang.
	if q.stallTimeout > 0 && !(allDone && s.sent == s.absorbed) &&
		s.now.Sub(q.lastActivity) > q.stallTimeout {
		v.abort = fmt.Sprintf(
			"run stalled for %v (progress min %d of %d cycles, %d of %d messages absorbed): wedged cluster or lost message",
			q.stallTimeout, minProg, q.cycles, s.absorbed, s.sent)
	} else if q.runTimeout > 0 && s.now.Sub(q.started) > q.runTimeout {
		// Activity without termination forever is livelock (e.g. rollback
		// churn with broken cancellation), which inactivity cannot see.
		v.abort = fmt.Sprintf(
			"run exceeded hard cap %v while still active (progress min %d of %d cycles, %d of %d messages absorbed): livelocked kernel",
			q.runTimeout, minProg, q.cycles, s.absorbed, s.sent)
	}
	return v
}
