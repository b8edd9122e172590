package timewarp

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/causality"
	"repro/internal/sim"
)

// Config describes one Time Warp run.
type Config struct {
	NL *netlist.Netlist
	// GateParts maps every gate to its cluster ("machine"), as produced
	// by the partitioners.
	GateParts []int32
	// K is the number of clusters.
	K int
	// Vectors is the stimulus, shared deterministically by all clusters.
	Vectors sim.VectorSource
	// Cycles is the number of input vectors to simulate.
	Cycles uint64
	// Observe lists nets whose committed per-cycle (post-latch) values
	// are recorded; defaults to the primary outputs.
	Observe []netlist.NetID
	// Transport optionally replaces direct in-process delivery (nil =
	// direct). Over direct delivery a cluster with remote inputs waits for
	// its senders; over any transport set here it runs optimistically and
	// can be rolled back. The chaos transport (comm.Chaos) is the
	// adversarial delivery-order schedule the fuzz harness uses to provoke
	// stragglers and rollback cascades.
	Transport comm.TransportFactory
	// StallTimeout, when positive, makes the watcher abort the run with
	// an error if no cluster makes progress and no message moves for this
	// long before termination — a genuinely wedged cluster becomes a
	// test failure instead of a hang. Zero keeps the previous behaviour
	// (wait forever). Chaos-transport stall schedules hold messages for
	// a few milliseconds at most, so harness timeouts in the seconds
	// range never trip on them.
	StallTimeout time.Duration
	// RunTimeout, when positive, is a hard wall-clock cap on the whole
	// run: the watcher aborts with an error once it is exceeded even while
	// activity continues. It catches livelock — e.g. endless rollback
	// churn when cancellation is broken — which the inactivity-based
	// StallTimeout by construction cannot see. Zero = unbounded.
	RunTimeout time.Duration
	// Faults injects deliberate kernel misbehaviour so the fuzz harness
	// can prove it detects regressions. Nil (always, outside harness
	// self-tests) disables injection.
	Faults *FaultConfig
	// Obs attaches the observability layer: per-cluster sampled metrics,
	// rollback/GVT trace spans, and the Chrome-trace export. Nil disables
	// instrumentation; every hot-path site then costs one branch.
	Obs *obs.Observer
	// Causality attaches the per-event lineage recorder (parent and
	// straggler-origin ids riding on every event): Recorder.Analyze then
	// yields rollback-cascade blame and the committed-event critical path
	// after the run. Nil disables recording; every hot-path site then
	// costs one branch.
	Causality *causality.Recorder
	// Probe, when non-nil, receives live liveness state from the watcher
	// (GVT, minimum progress, straggler depth, last-activity time) — the
	// read-only feed behind the monitoring server's /healthz.
	Probe *Probe
}

// Stats aggregates kernel activity over a run.
type Stats struct {
	Messages     uint64 // positive inter-cluster events sent
	AntiMessages uint64 // cancellations sent
	Rollbacks    uint64 // rollback occurrences
	// Events counts gate evaluations executed, re-execution included:
	// every cycle a cluster executes evaluates each own gate, flip-flops
	// too, once (DESIGN.md §26). It is not comparable with
	// sim.Simulator.Events, which counts the gates the sequential
	// simulator's delta events reach (DESIGN.md §20).
	Events           uint64
	RolledBackEvents uint64 // evaluations undone by rollbacks
	// Checkpoints counts rollback records written: one per executed cycle,
	// re-executed ones included, in every cluster that reads a net another
	// cluster drives and runs ahead of its senders — over a non-nil
	// Config.Transport. None in a cluster that reads no such net, which
	// nothing can roll back, and none in Run over direct delivery, where a
	// cluster waits for its senders instead.
	Checkpoints uint64
	// MaxStragglerDepth is the deepest single rollback in cycles (LVT
	// minus restored cycle) — how far behind its cluster the worst
	// straggler arrived. Aggregated by max, not sum.
	MaxStragglerDepth uint64
	// Batches counts comm.Messages sent and BatchedEvents the events they
	// carried; their ratio is the mean batch size. Every event sent leaves
	// in exactly one message, so BatchedEvents is Messages + AntiMessages.
	Batches       uint64
	BatchedEvents uint64
	// The two pool counters always read zero: no buffer pool is left for
	// them to count (DESIGN §28). They stay declared only because
	// benchmark/workloads.go reads them, until a benchmark PR retires its
	// timewarp.pool_hit_frac row (ROADMAP item 1).
	PoolHits   uint64
	PoolMisses uint64
}

// Result is the outcome of a run.
type Result struct {
	// Observed holds, for each observed net, its committed value after
	// every cycle (index = cycle).
	Observed map[netlist.NetID][]bool
	Stats    Stats
	// PerCluster breaks the statistics down by machine, the view the
	// paper's per-processor plots use.
	PerCluster []Stats
	// FinalGVT is the last quiescent GVT the watcher established (in
	// cycles). On clean termination it equals Cycles.
	FinalGVT uint64
	// InvariantViolations lists kernel invariants found broken during the
	// run: a GVT that regressed, or messages left in flight or unabsorbed,
	// or wire frames written but not read, at termination. Always empty for
	// a healthy kernel; the fuzz harness fails a run whose list is
	// non-empty.
	InvariantViolations []string
	// WireFramesSent and WireFramesRecv are the cross-process data frames
	// the workers' meshes wrote and read, summed at termination — zero for
	// in-process runs, and the one count of frames on the wire.
	WireFramesSent uint64
	WireFramesRecv uint64
}

// watcherInterval is the poll period of Run's quiescence loop.
const watcherInterval = 200 * time.Microsecond

// Run executes the parallel simulation and returns the committed waveforms
// plus kernel statistics: one host owning all K clusters, sampled into the
// quiescence tracker until it terminates or aborts the run. Over direct
// delivery (Config.Transport nil) a cluster with remote inputs waits for
// its senders before each cycle and is never rolled back; over any other
// transport it runs optimistically, keeping rollback records.
func Run(cfg Config) (*Result, error) {
	h, err := newHost(cfg, "tw", nil)
	if err != nil {
		return nil, err
	}
	return h.run()
}

// run drives a host owning all K clusters from start to termination.
func (h *host) run() (*Result, error) {
	cfg := h.cfg
	cfg.Causality.Attach(cfg.K, cfg.Cycles)
	cfg.Probe.attach(cfg.Cycles)
	runT0 := cfg.Obs.Start()

	h.start(nil)
	q := newQuiescence(cfg.K, cfg.Cycles, cfg.StallTimeout, cfg.RunTimeout, time.Now())
	var abortErr error
	obs.Labeled("tw", obs.TrackKernel, "watcher", func() {
		s := sample{progress: make([]uint64, cfg.K), complete: true}
		for h.failure() == nil { // a failing cluster stops its peers itself
			time.Sleep(watcherInterval)
			h.sample(&s)
			s.now = time.Now()
			v := q.step(s)
			h.note(&s, v.gvt, v.active)
			if v.advanced {
				h.gvt.Store(v.gvt)
				cfg.Obs.Count(obs.TrackKernel, "gvt", float64(v.gvt))
				cfg.Obs.Instant(obs.TrackKernel, "gvt_advance",
					obs.Arg{Key: "gvt", Val: float64(v.gvt)})
			}
			if v.terminate {
				h.closeEndpoints()
				return
			}
			if v.abort != "" {
				abortErr = fmt.Errorf("timewarp: %s", v.abort)
				h.abort()
				return
			}
		}
	})
	if err := h.wait(); err != nil {
		abortErr = err
	}
	// Stop background delivery. On clean termination the transport holds
	// nothing (absorbed == sent gates the close); on abort it flushes into
	// the already-closed endpoints, preserving exactly-once accounting.
	h.net.CloseTransport()

	if abortErr != nil {
		cfg.Probe.finish(abortErr)
		return nil, abortErr
	}
	cfg.Probe.finish(nil)
	res := mergeResults(cfg.K, []*distResult{h.collect()}, q)
	cfg.Obs.Span(obs.TrackKernel, "timewarp.run", runT0,
		obs.Arg{Key: "k", Val: float64(cfg.K)},
		obs.Arg{Key: "cycles", Val: float64(cfg.Cycles)},
		obs.Arg{Key: "rollbacks", Val: float64(res.Stats.Rollbacks)})
	return res, nil
}
