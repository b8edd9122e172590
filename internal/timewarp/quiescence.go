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
	complete bool
	// wire is the cumulative count of cross-process data frames sent plus
	// received; constant zero in-process.
	wire uint64
	// drained says every cross-process frame sent before this sample was
	// taken has also been received (the Mattern era tallies balance).
	// Shared memory has no wire: Run passes true.
	drained      bool
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
	// lost wire frame, a stall or a livelock.
	abort string
}

// quiescence is the one freeze → GVT → termination decision procedure of
// the kernel, shared by the in-process watcher and the distributed
// coordinator. It is a pure state machine over samples: no clocks, no
// atomics, no I/O.
//
// The safety argument, stated once. If across two consecutive samples
// (a) no message was sent, (b) every sent message was absorbed, (c) no
// cluster's published cycle changed and (d) the wire between processes
// was idle and drained, then no absorption — hence no rollback — happened
// in between either: absorbed is capped by sent and already equals it.
// The progress minimum therefore held at a provably quiescent instant.
// A cluster publishes its cycle, a lower bound on the timestamp of anything
// it will still send, and any future rollback chain starts from such a
// send, so no rollback can ever target a cycle below that minimum: it is a
// safe fossil-collection line, and "all clusters finished + quiescent",
// seen twice, is safe termination. In-process (d) holds trivially; across
// processes the per-worker counters are read at different instants, so the
// coordinator colours data frames by round and (d) is "every frame coloured
// before this cut was counted received".
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
	moved = moved || s.sent != q.prev.sent || s.absorbed != q.prev.absorbed || s.wire != q.prev.wire
	v := verdict{minProg: minProg, active: moved}
	v.frozen = !moved && s.complete && s.sent == s.absorbed
	if v.active {
		q.lastActivity = s.now
	}
	copy(q.prev.progress, s.progress)
	s.progress = q.prev.progress
	q.prev, q.havePrev = s, true

	switch {
	case v.frozen && !s.drained:
		// Nothing is moving, so the missing frame never will arrive.
		v.abort = "wire frame lost: era counts unbalanced at a frozen cut"
	case v.frozen:
		// GVT advances only at quiescent instants and must never regress —
		// the invariant fossil collection stands on.
		if minProg > q.gvt {
			q.gvt, v.advanced = minProg, true
		} else if minProg < q.gvt {
			q.violations = append(q.violations, fmt.Sprintf(
				"GVT regression: quiescent minimum %d below established GVT %d", minProg, q.gvt))
		}
		if allDone {
			q.doneStreak++
			v.terminate = q.doneStreak >= 2
		} else {
			q.doneStreak = 0
		}
	default:
		q.doneStreak = 0
	}
	v.gvt = q.gvt
	if v.terminate || v.abort != "" {
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
