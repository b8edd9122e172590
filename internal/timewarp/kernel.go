// Package timewarp is a parallel discrete-event simulation kernel for
// gate-level netlists — the role OOCTW (object-oriented Clustered Time Warp)
// plays under DVS in the paper. Each partition of the netlist becomes a
// cluster of logic owned by one goroutine ("machine"); clusters exchange
// the values of the nets they share through the comm network.
//
// Each cluster executes a cycle on a sim.Machine over its own gates (one
// sim.Settle of its fused slice of the sequential sweep's table, then the
// latch): the machine sim.Levelized runs over the whole table. A cluster
// also evaluates, as copies, the combinational fan-in cones of every net
// it reads that another cluster's combinational gate drives, so the only
// nets that cross the cut are flip-flop outputs, each read one cycle after
// it latched. So a link carries, once per cycle, the values of a fixed
// list of the sender's flip-flops: those the receiver's fused records and
// its latch read, which every process reads off the compiled clusters
// (compileAll). After its latch a sender packs the values a receiver
// reads into one frame, stamped with the cycle after the one that latched
// them, and ships it when any of them changed; a cycle scatters every
// frame for it into its slots before it settles. That one-cycle lookahead
// makes the kernel conservative: after each cycle a cluster sends a
// watermark behind its frames on every link, and before each cycle it
// waits until the link from each of its senders has delivered the
// watermark for that cycle — on every transport, direct delivery, the
// chaos schedule and a distributed run's sockets alike. Nothing is ever
// executed ahead of its inputs, so nothing is rolled back, and a frame
// that arrives for a cycle already executed fails the run. A run over any
// partitioning commits exactly the same per-cycle waveforms as
// sim.Simulator — the correctness property the tests assert.
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
	// frames and watermarks on their links.
	Transport comm.TransportFactory
	// StallTimeout, when positive, makes the progress watchdog abort the
	// run with an error if no cluster's published cycle moves for this
	// long before every cluster has run its cycles — a genuinely wedged
	// cluster becomes a test failure instead of a hang. Zero waits forever.
	// Chaos-transport stall schedules hold messages for a few milliseconds
	// at most, so harness timeouts in the seconds range never trip on them.
	StallTimeout time.Duration
	// RunTimeout, when positive, is a hard wall-clock cap on the whole
	// run: the watchdog aborts with an error once it is exceeded even while
	// clusters still move. Zero = unbounded.
	RunTimeout time.Duration
	// Faults injects deliberate kernel misbehaviour so the fuzz harness
	// can prove it detects regressions. Nil (always, outside harness
	// self-tests) disables injection.
	Faults *FaultConfig
	// Obs attaches the observability layer: per-cluster sampled metrics,
	// wait trace spans, and the Chrome-trace export. Nil disables
	// instrumentation; every hot-path site then costs one branch.
	Obs *obs.Observer
	// Causality attaches the per-frame lineage recorder (which cycle
	// consumed which sender's frame, what each cycle cost): Recorder.Analyze then
	// yields the committed-event critical path after the run. Nil disables
	// recording; every hot-path site then costs one branch.
	Causality *causality.Recorder
	// Probe, when non-nil, receives live liveness state from the progress
	// watchdog (minimum progress, when a cluster last moved) — the
	// read-only feed behind the monitoring server's /healthz. A run starts
	// the watchdog only when it has a Probe, a StallTimeout or a RunTimeout.
	Probe *Probe
}

// Stats aggregates kernel activity over a run.
type Stats struct {
	// Messages counts the changed flip-flop values shipped across the cut,
	// once per receiver: the events an event-per-change link would carry.
	// The last cycle ships nothing, since no cycle reads what it latched.
	Messages uint64
	// Events counts gate evaluations executed: every cycle a cluster
	// executes evaluates each own gate and copy, flip-flops too, once
	// (DESIGN.md §26). It counts netlist gates, not the fused records a
	// cluster settles them in (§20). It is not comparable with
	// sim.Simulator.Events, which counts the gates the sequential
	// simulator's delta events reach (DESIGN.md §20).
	Events uint64
	// Batches counts the frames sent and BatchedEvents the changed values
	// they carried; their ratio is the mean batch size. A cluster ships a
	// receiver a frame for a cycle exactly when a value it reads changed,
	// so BatchedEvents is Messages.
	Batches       uint64
	BatchedEvents uint64
	// LinkWaits counts the cycles that waited for a sender which had
	// published the cycle while its link still held the watermark: the
	// waits a transport, not a slow sender, caused. Zero over direct
	// delivery, which hands a watermark over before the publish. It cannot
	// see waits between workers: a worker learns of a remote sender only
	// its watermark, never its publish, so a distributed run reads zero
	// however long the mesh held a watermark.
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
	// FinalGVT is the slowest cluster's published cycle at the end of the
	// run: Cycles on a clean run.
	FinalGVT uint64
	// InvariantViolations lists kernel invariants found broken at
	// termination: frames sent but not absorbed, wire frames written but
	// not read, a cluster reported twice. Always empty for a
	// healthy kernel; the fuzz harness fails a run whose list is non-empty.
	InvariantViolations []string
	// WireFramesSent and WireFramesRecv are the cross-process data frames
	// the workers' meshes wrote and read, summed at termination — zero for
	// in-process runs, and the one count of frames on the wire.
	WireFramesSent uint64
	WireFramesRecv uint64
}

// watcherInterval is the poll period of Run's progress watchdog.
const watcherInterval = 200 * time.Microsecond

// Run executes the parallel simulation and returns the committed waveforms
// plus kernel statistics: one host owning all K clusters, which returns
// once every cluster has run its cycles.
func Run(cfg Config) (*Result, error) {
	h, err := newHost(cfg, "tw", nil)
	if err != nil {
		return nil, err
	}
	return h.run()
}

// run drives a host owning all K clusters from start to the end of their
// last cycles.
func (h *host) run() (*Result, error) {
	cfg := h.cfg
	cfg.Causality.Attach(cfg.K, cfg.Cycles)
	cfg.Probe.attach(cfg.Cycles)
	runT0 := cfg.Obs.Start()

	h.start(nil)
	stop := h.watch()
	err := h.wait()
	if werr := stop(); err == nil {
		err = werr
	}
	// Stop background delivery. On a clean run the transport holds no
	// message, only watermarks; on abort it flushes into the already-closed
	// endpoints, preserving exactly-once accounting.
	h.net.CloseTransport()

	if err != nil {
		cfg.Probe.finish(err)
		return nil, err
	}
	h.note()
	cfg.Probe.finish(nil)
	res := mergeResults(cfg.K, []*distResult{h.collect()})
	cfg.Obs.Span(obs.TrackKernel, "timewarp.run", runT0,
		obs.Arg{Key: "k", Val: float64(cfg.K)},
		obs.Arg{Key: "cycles", Val: float64(cfg.Cycles)},
		obs.Arg{Key: "messages", Val: float64(res.Stats.Messages)})
	return res, nil
}

// watch starts the progress watchdog on its own goroutine when the run
// asks for it (a StallTimeout, a RunTimeout or a Probe). Every
// watcherInterval it samples the published cycles, feeds the probe, and
// aborts the run on a stall or past the hard cap. stop ends it and returns
// the abort's error, if it aborted.
func (h *host) watch() (stop func() error) {
	cfg := h.cfg
	if cfg.StallTimeout <= 0 && cfg.RunTimeout <= 0 && cfg.Probe == nil {
		return func() error { return nil }
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	var abortErr error
	go obs.Labeled("tw", obs.TrackKernel, "watcher", func() {
		defer close(exited)
		wd := newWatchdog(cfg.K, cfg.Cycles, cfg.StallTimeout, cfg.RunTimeout, time.Now())
		progress := make([]uint64, cfg.K)
		tick := time.NewTicker(watcherInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			for c := range progress {
				progress[c] = h.progress[c].Load()
			}
			v := wd.step(progress, time.Now())
			cfg.Probe.note(v.minProg, v.moved)
			if v.abort != "" {
				abortErr = fmt.Errorf("timewarp: %s", v.abort)
				h.abort()
				return
			}
		}
	})
	return func() error {
		close(quit)
		<-exited
		return abortErr
	}
}
