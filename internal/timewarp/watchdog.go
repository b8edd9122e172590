package timewarp

import (
	"fmt"
	"slices"
	"time"
)

// watchdog is the progress watchdog of a run, shared by Run's watcher and
// the coordinator's report loop. It does not decide termination: a run
// ends by count (DESIGN §19). The last cycle ships nothing, so every frame
// is stamped with a cycle its receiver executes, and a receiver takes it
// off its link after its sender's watermark for the cycle arrived, behind
// the frames it covers on a FIFO link. Every frame is therefore absorbed
// by its receiver's last cycle, and a cluster that has run Cycles
// cycles is done: it returns, and a distributed worker whose clusters have
// all returned sends its result. The watchdog only tells a live run from
// a dead one. It is a pure state machine over samples of the clusters'
// published cycles: no clocks, no atomics, no I/O.
type watchdog struct {
	cycles       uint64
	stallTimeout time.Duration
	runTimeout   time.Duration
	started      time.Time
	lastMove     time.Time
	prev         []uint64 // the previous sample's published cycles
}

// verdict is what the watchdog concludes from one sample.
type verdict struct {
	// moved: some cluster's published cycle changed since the previous
	// sample.
	moved   bool
	minProg uint64
	// done: every cluster has published Cycles.
	done bool
	// abort, when non-empty, is the diagnosis the run must end with: a
	// stall or an exceeded hard cap.
	abort string
}

func newWatchdog(k int, cycles uint64, stallTimeout, runTimeout time.Duration, now time.Time) *watchdog {
	return &watchdog{
		cycles:       cycles,
		stallTimeout: stallTimeout,
		runTimeout:   runTimeout,
		started:      now,
		lastMove:     now,
		prev:         make([]uint64, k),
	}
}

// step consumes one sample, every cluster's published cycle at now, and
// decides.
func (w *watchdog) step(progress []uint64, now time.Time) verdict {
	v := verdict{moved: !slices.Equal(progress, w.prev), minProg: slices.Min(progress)}
	v.done = v.minProg >= w.cycles
	copy(w.prev, progress)
	if v.moved {
		w.lastMove = now
	}
	switch {
	case v.done:
	case w.stallTimeout > 0 && now.Sub(w.lastMove) > w.stallTimeout:
		// No cluster moved and the run is not over: a wedged cluster or a
		// lost watermark. Abort so callers get a diagnosis, not a hang.
		v.abort = fmt.Sprintf(
			"run stalled for %v (progress min %d of %d cycles): wedged cluster or lost watermark",
			w.stallTimeout, v.minProg, w.cycles)
	case w.runTimeout > 0 && now.Sub(w.started) > w.runTimeout:
		v.abort = fmt.Sprintf(
			"run exceeded hard cap %v while still moving (progress min %d of %d cycles)",
			w.runTimeout, v.minProg, w.cycles)
	}
	return v
}
