package timewarp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Probe is a read-only, lock-free view of the run's liveness, fed by the
// termination watcher: last activity time and minimum cluster progress. It is the state behind the
// monitoring server's /healthz — a wedged run turns into a 503 instead of
// a hanging scrape. Create one with NewProbe, pass it in Config.Probe,
// and read State from any goroutine at any time. A nil Probe is valid and
// disables the updates.
type Probe struct {
	attached    atomic.Bool
	done        atomic.Bool
	failed      atomic.Bool
	minProgress atomic.Uint64
	cycles      atomic.Uint64
	lastAdvance atomic.Int64 // UnixNano of the last observed activity

	mu     sync.Mutex
	reason string // failure diagnosis, set once at finish
}

// NewProbe returns an empty probe awaiting a run.
func NewProbe() *Probe { return &Probe{} }

// ProbeState is a point-in-time copy of the probe, JSON-ready for the
// monitoring server's /status endpoint.
type ProbeState struct {
	// Attached is false until a run adopts the probe.
	Attached bool `json:"attached"`
	// Done is true once the run returned (successfully or not).
	Done bool `json:"done"`
	// Failed is true when the run returned an error; Reason carries it.
	Failed bool   `json:"failed"`
	Reason string `json:"reason,omitempty"`
	// MinProgress is the slowest cluster's published cycle.
	MinProgress uint64 `json:"min_progress"`
	// Cycles is the run's target length.
	Cycles uint64 `json:"cycles"`
	// LastAdvance is when the watcher last saw activity (progress or
	// message traffic).
	LastAdvance time.Time `json:"last_advance"`
}

// State reads a consistent-enough snapshot (each field individually
// exact; the set is skewed by at most one watcher poll). Safe from any
// goroutine, including while the kernel runs.
func (p *Probe) State() ProbeState {
	if p == nil {
		return ProbeState{}
	}
	p.mu.Lock()
	reason := p.reason
	p.mu.Unlock()
	var last time.Time
	if n := p.lastAdvance.Load(); n != 0 {
		last = time.Unix(0, n)
	}
	return ProbeState{
		Attached:    p.attached.Load(),
		Done:        p.done.Load(),
		Failed:      p.failed.Load(),
		Reason:      reason,
		MinProgress: p.minProgress.Load(),
		Cycles:      p.cycles.Load(),
		LastAdvance: last,
	}
}

// DefaultStallAfter is the liveness threshold Health applies when the
// caller passes zero: a run with no observed activity for this long is
// reported unhealthy.
const DefaultStallAfter = 10 * time.Second

// Health evaluates liveness: healthy while unattached (no run yet),
// after clean completion, and while activity is more recent than
// stallAfter (≤ 0 picks DefaultStallAfter); unhealthy on failure or
// stall. The detail string is the /healthz response body.
func (s ProbeState) Health(stallAfter time.Duration) (ok bool, detail string) {
	if stallAfter <= 0 {
		stallAfter = DefaultStallAfter
	}
	switch {
	case !s.Attached:
		return true, "idle: no run attached"
	case s.Failed:
		return false, "run failed: " + s.Reason
	case s.Done:
		return true, fmt.Sprintf("run complete: min progress %d of %d cycles", s.MinProgress, s.Cycles)
	}
	if idle := time.Since(s.LastAdvance); idle > stallAfter {
		return false, fmt.Sprintf(
			"stalled: no progress for %v (min progress %d of %d cycles)",
			idle.Round(time.Millisecond), s.MinProgress, s.Cycles)
	}
	return true, fmt.Sprintf("advancing: min progress %d of %d cycles", s.MinProgress, s.Cycles)
}

// attach adopts the probe for a run of the given length.
func (p *Probe) attach(cycles uint64) {
	if p == nil {
		return
	}
	p.cycles.Store(cycles)
	p.minProgress.Store(0)
	p.done.Store(false)
	p.failed.Store(false)
	p.lastAdvance.Store(time.Now().UnixNano())
	p.attached.Store(true)
}

// note publishes one watcher poll. active marks observed progress or
// message traffic since the previous poll.
func (p *Probe) note(minProgress uint64, active bool) {
	if p == nil {
		return
	}
	p.minProgress.Store(minProgress)
	if active {
		p.lastAdvance.Store(time.Now().UnixNano())
	}
}

// finish records the run outcome.
func (p *Probe) finish(err error) {
	if p == nil {
		return
	}
	if err != nil {
		p.mu.Lock()
		p.reason = err.Error()
		p.mu.Unlock()
		p.failed.Store(true)
	}
	p.done.Store(true)
}
