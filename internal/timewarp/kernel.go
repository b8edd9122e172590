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
	// Vectors is the stimulus. Each cluster that owns a primary input
	// calls it for every cycle it executes, concurrently with the others,
	// and every call for a cycle must yield the same vector.
	Vectors sim.VectorSource
	// Cycles is the number of input vectors to simulate.
	Cycles uint64
	// Observe lists nets whose committed per-cycle (post-latch) values
	// are recorded; defaults to the primary outputs.
	Observe []netlist.NetID
	// Transport optionally replaces direct in-process delivery (nil =
	// direct). A cluster with remote inputs waits for its senders'
	// watermarks over every transport; the chaos transport (comm.Chaos) is
	// the adversarial delivery schedule the fuzz harness uses to hold
	// events and watermarks on their links.
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
	// activity continues. It catches livelock — activity that never ends
	// the run — which the inactivity-based StallTimeout by construction
	// cannot see. Zero = unbounded.
	RunTimeout time.Duration
	// Faults injects deliberate kernel misbehaviour so the fuzz harness
	// can prove it detects regressions. Nil (always, outside harness
	// self-tests) disables injection.
	Faults *FaultConfig
	// Obs attaches the observability layer: per-cluster sampled metrics,
	// wait trace spans, and the Chrome-trace export. Nil disables
	// instrumentation; every hot-path site then costs one branch.
	Obs *obs.Observer
	// Causality attaches the per-event lineage recorder (which cycle
	// consumed which event, what each cycle cost): Recorder.Analyze then
	// yields the committed-event critical path after the run. Nil disables
	// recording; every hot-path site then costs one branch.
	Causality *causality.Recorder
	// Probe, when non-nil, receives live liveness state from the watcher
	// (minimum progress, last-activity time) — the read-only feed behind
	// the monitoring server's /healthz.
	Probe *Probe
}

// Stats aggregates kernel activity over a run.
type Stats struct {
	Messages uint64 // inter-cluster events sent
	// Events counts gate evaluations executed: every cycle a cluster
	// executes evaluates each own gate and copy, flip-flops too, once
	// (DESIGN.md §26). It counts netlist gates, not the fused records a
	// cluster settles them in (§20). It is not comparable with
	// sim.Simulator.Events, which counts the gates the sequential
	// simulator's delta events reach (DESIGN.md §20).
	Events uint64
	// Batches counts comm.Messages sent and BatchedEvents the events they
	// carried; their ratio is the mean batch size. Every event sent leaves
	// in exactly one message, so BatchedEvents is Messages.
	Batches       uint64
	BatchedEvents uint64
	// LinkWaits counts the cycles that waited for a sender which had
	// published the cycle while its link still held the watermark: the
	// waits a transport, not a slow sender, caused. Zero over direct
	// delivery, which hands a watermark over before the publish, and in a
	// distributed run, whose workers see no remote publish but the
	// watermark itself.
	LinkWaits uint64
	// Rollbacks, AntiMessages, RolledBackEvents, Checkpoints and
	// MaxStragglerDepth always read zero: a cluster waits for its senders
	// and is never rolled back (DESIGN §26). The two pool counters always
	// read zero too: no buffer pool is left for them to count (§28). All
	// seven stay declared only because benchmark/workloads.go reads them,
	// until a benchmark change retires their rows (ROADMAP item 1).
	Rollbacks         uint64
	AntiMessages      uint64
	RolledBackEvents  uint64
	Checkpoints       uint64
	MaxStragglerDepth uint64
	PoolHits          uint64
	PoolMisses        uint64
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
	// FinalGVT is the slowest cluster's published cycle at termination:
	// Cycles on clean termination.
	FinalGVT uint64
	// InvariantViolations lists kernel invariants found broken at
	// termination: messages left in flight or unabsorbed, wire frames
	// written but not read, a cluster reported twice. Always empty for a
	// healthy kernel; the fuzz harness fails a run whose list is non-empty.
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
// quiescence tracker until it terminates or aborts the run.
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
			h.note(&s, v.active)
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
	res := mergeResults(cfg.K, []*distResult{h.collect()})
	cfg.Obs.Span(obs.TrackKernel, "timewarp.run", runT0,
		obs.Arg{Key: "k", Val: float64(cfg.K)},
		obs.Arg{Key: "cycles", Val: float64(cfg.Cycles)},
		obs.Arg{Key: "messages", Val: float64(res.Stats.Messages)})
	return res, nil
}
