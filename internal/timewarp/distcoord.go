package timewarp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/comm/nettrans"
	"repro/internal/obs"
)

// CoordConfig configures the coordinator of a distributed run.
type CoordConfig struct {
	// Spec is the complete run description shipped to every worker
	// (required).
	Spec *DistSpec
	// Workers is how many worker processes the run spans (required,
	// 1 ≤ Workers ≤ Spec.K — every worker must own at least one cluster).
	Workers int
	// Listen is the control-plane bind address (default "127.0.0.1:0";
	// read the chosen port back with Addr).
	Listen string
	// Watchdog bounds every per-worker wait: the handshake, and the
	// silence between a worker's reports until its result is in. A worker
	// that exceeds it is declared dead and the run aborts — the
	// crash/timeout path (default 5s).
	Watchdog time.Duration
	// StallTimeout and RunTimeout mirror Config: inactivity abort and
	// hard wall-clock cap (0 = unbounded).
	StallTimeout time.Duration
	RunTimeout   time.Duration
	// Probe receives live liveness state, exactly as Config.Probe does
	// for the in-process kernel; an abort surfaces through it as a
	// failed state with the diagnosis.
	Probe *Probe
	// Obs, when enabled, records the slowest cluster's reported cycle (the
	// dist_min_progress gauge, and a counter sample of it per report),
	// registers every cluster's Stats-backed tw_* series over the counters
	// its worker last reported, and merges the workers' shipped trace
	// rings — one /metrics scrape or trace covers the whole run.
	Obs *obs.Observer
	// PostMortemDir, when non-empty, receives a flight-recorder bundle
	// (metrics, merged trace tail, probe states, goroutine dump)
	// whenever the run aborts.
	PostMortemDir string
}

// Coordinator drives a distributed Time Warp run: it welcomes each worker
// with the whole run — its clusters, its peers, the spec — and from then
// on only listens. Each worker reports its
// clusters' published cycles and counters on its own heartbeat and sends
// its result once they have run their cycles; the coordinator folds the
// reports into one sample of the run's progress, detects crashed, silent
// or wedged workers, and once every result is in tells the workers to
// finish and merges the results into the same Result the in-process
// kernel returns.
type Coordinator struct {
	cfg       CoordConfig
	ln        net.Listener
	placement []int32
	fed       *coordFed
	// stats holds, per cluster, the Stats its worker last reported: each
	// report overwrites it, the worker's result too. The coordinator's
	// tw_* series read it.
	statsMu sync.Mutex
	stats   []Stats
	// registered marks the clusters whose series exist.
	registered []bool
	// pmOnce guards the abort-time bundle write: repeated abort signals
	// (a dying worker racing the watchdog, a double fail) write the
	// post-mortem bundle exactly once.
	pmOnce sync.Once
}

// coordFed is the coordinator-retained trace state: per-worker clock
// offsets from the handshake and one trace ring per worker fed by the
// trace batches of the worker's reports. The merged cluster trace and the
// post-mortem bundle are written from it and from the coordinator's own
// ring (whose dist_min_progress samples are the progress history) —
// everything is already here when a worker dies, so an abort costs no
// extra collection.
type coordFed struct {
	mu        sync.Mutex
	offsetsUS []int64 // per worker: worker-clock µs − coordinator-clock µs
	// rings holds what each worker shipped, in a ring of the tracer's own
	// type and of the worker's own size: what the worker still holds when
	// it finishes, the coordinator holds too.
	rings []*obs.Tracer
	lost  []uint64 // per worker: events its ring overwrote before they were shipped
}

func newCoordFed(workers int) *coordFed {
	fd := &coordFed{
		offsetsUS: make([]int64, workers),
		rings:     make([]*obs.Tracer, workers),
		lost:      make([]uint64, workers),
	}
	for i := range fd.rings {
		fd.rings[i] = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	return fd
}

// absorb files a report's trace batch in worker's ring.
func (fd *coordFed) absorb(worker int, r distReport) {
	fd.mu.Lock()
	fd.lost[worker] += r.Lost
	fd.mu.Unlock()
	for _, e := range r.Trace {
		fd.rings[worker].Push(e)
	}
}

// noteStats checks that every entry a worker sent names a cluster placed
// on it and keeps each entry's Stats as the cluster's latest; the first
// report of a cluster registers its tw_* series. A misplaced entry is a
// protocol violation naming the worker.
func (co *Coordinator) noteStats(worker int, cs []clusterReport) error {
	for _, c := range cs {
		if owner := int(co.placement[c.Cluster]); owner != worker {
			return fmt.Errorf("timewarp: worker %d sent counters of cluster %d, which is placed on worker %d",
				worker, c.Cluster, owner)
		}
	}
	reg := co.cfg.Obs.Registry()
	co.statsMu.Lock()
	defer co.statsMu.Unlock()
	for _, c := range cs {
		co.stats[c.Cluster] = c.Stats
		if co.registered[c.Cluster] {
			continue
		}
		co.registered[c.Cluster] = true
		lbl := obs.L("cluster", int(c.Cluster))
		for i, f := range co.stats[c.Cluster].fields() {
			reg.SampleFunc(statSeries[i].name, statSeries[i].help, func() float64 {
				co.statsMu.Lock()
				defer co.statsMu.Unlock()
				return float64(*f)
			}, lbl)
		}
	}
	return nil
}

// NewCoordinator validates the config and opens the control listener so
// the address is known before any worker starts.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("timewarp: coordinator needs a spec")
	}
	if err := checkPartition(cfg.Spec.K, cfg.Spec.GateParts); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 || cfg.Workers > cfg.Spec.K {
		return nil, fmt.Errorf("timewarp: %d workers for k=%d clusters (need 1 ≤ workers ≤ k)",
			cfg.Workers, cfg.Spec.K)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("timewarp: coordinator listen: %w", err)
	}
	// Contiguous balanced blocks: cluster c belongs to worker c·W/K, so
	// every worker gets ⌊K/W⌋ or ⌈K/W⌉ clusters. Block numbers say nothing
	// about which clusters share nets, so this neither co-locates the
	// clusters that talk nor balances gates: on soc_dist_split every cut
	// net joins a cluster on one worker to a cluster on the other.
	placement := make([]int32, cfg.Spec.K)
	for c := range placement {
		placement[c] = int32(c * cfg.Workers / cfg.Spec.K)
	}
	return &Coordinator{cfg: cfg, ln: ln, placement: placement, fed: newCoordFed(cfg.Workers),
		stats: make([]Stats, cfg.Spec.K), registered: make([]bool, cfg.Spec.K)}, nil
}

// Addr is the control-plane address workers must dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// workerFrame is one frame (or terminal error) from one worker's control
// connection, funneled into the coordinator's single event loop.
type workerFrame struct {
	worker  int
	typ     byte
	payload []byte
	err     error
}

// Run accepts the workers, drives the run to completion and returns the
// merged result. It blocks until the run finishes or aborts; on abort
// every surviving worker is told why, the probe records the failure, and
// the error carries the diagnosis.
func (co *Coordinator) Run() (*Result, error) {
	cfg := co.cfg
	defer co.ln.Close()

	// The handshake: workers connect in any order; ids are assigned in
	// accept order. Once a worker has its welcome nothing else holds it
	// back (DESIGN §14).
	conns := make([]*nettrans.Conn, cfg.Workers)
	dataAddrs := make([]string, cfg.Workers)
	deadline := time.Now().Add(cfg.Watchdog)
	for i := 0; i < cfg.Workers; i++ {
		if tl, ok := co.ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		raw, err := co.ln.Accept()
		if err != nil {
			return co.fail(co.abortf(conns, "only %d of %d workers connected within %v: %w",
				i, cfg.Workers, cfg.Watchdog, err))
		}
		conn := nettrans.NewConn(raw)
		typ, payload, err := conn.Recv()
		if err == nil && typ != nettrans.FrameHello {
			err = fmt.Errorf("expected hello, got frame type 0x%02x", typ)
		}
		var hello nettrans.Hello
		if err == nil {
			hello, err = nettrans.DecodeHello(payload)
		}
		if err != nil {
			conn.Close()
			return co.fail(co.abortf(conns, "bad worker handshake: %w", err))
		}
		conns[i] = conn
		dataAddrs[i] = hello.DataAddr
		// Clock-rebase rule: both sides stamped their observer start as a
		// wall-clock instant, so the difference maps a worker trace
		// timestamp (µs since its own start) onto the coordinator's trace
		// clock. Either side uninstrumented → offset 0 (no rebase).
		if hello.StartUnixNano != 0 && co.cfg.Obs.Enabled() {
			co.fed.offsetsUS[i] = (hello.StartUnixNano - co.cfg.Obs.StartUnixNano()) / 1000
		}
	}

	for i, conn := range conns {
		w := distWelcome{WorkerID: i, Placement: co.placement, PeerAddrs: dataAddrs, Spec: cfg.Spec}
		if err := conn.Send(nettrans.FrameWelcome, appendWelcome(nil, w)); err != nil {
			return co.fail(co.abortf(conns, "worker %d unreachable at welcome: %w", i, err))
		}
	}

	// One reader per worker funnels every control frame into the event
	// loop, so crashes surface as read errors no matter what phase the
	// protocol is in. A reader whose frames nobody reads any more, after
	// Run returned, exits.
	frames := make(chan workerFrame, 4*cfg.Workers)
	quit := make(chan struct{})
	defer close(quit)
	for i, conn := range conns {
		i, conn := i, conn
		go func() {
			for {
				typ, payload, err := conn.Recv()
				select {
				case frames <- workerFrame{worker: i, typ: typ, payload: payload, err: err}:
				case <-quit:
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}

	cfg.Probe.attach(cfg.Spec.Cycles)
	res, err := co.listen(conns, frames)
	if err != nil {
		return co.fail(err)
	}
	cfg.Probe.finish(nil)
	return res, nil
}

// fail records the abort on the probe, flushes the flight recorder into
// a post-mortem bundle when one was requested, and returns the error.
// Every abort path funnels through here; the bundle write is
// once-guarded and its files individually atomic, so repeated abort
// signals write the bundle exactly once and never truncate it. A bundle
// that cannot be written is joined to the run's error, not printed: the
// original cause still matches errors.Is, and the CLIs' stdout stays
// the lines scripts parse.
func (co *Coordinator) fail(err error) (*Result, error) {
	co.cfg.Probe.finish(err)
	co.pmOnce.Do(func() {
		if co.cfg.PostMortemDir != "" {
			if werr := co.WritePostMortem(co.cfg.PostMortemDir, err); werr != nil {
				err = errors.Join(err, fmt.Errorf("post-mortem bundle: %w", werr))
			}
		}
	})
	return nil, err
}

// abortAll best-effort broadcasts the abort diagnosis and closes every
// control connection, so surviving workers stop promptly instead of
// waiting on a dead mesh.
func (co *Coordinator) abortAll(conns []*nettrans.Conn, reason string) {
	payload := appendAbort(nil, distAbort{Reason: reason})
	for _, conn := range conns {
		if conn != nil {
			conn.Send(nettrans.FrameAbort, payload)
			conn.Close()
		}
	}
}

// abortf broadcasts an abort diagnosis to every worker, closes their
// control connections and returns the diagnosis as the run's error.
func (co *Coordinator) abortf(conns []*nettrans.Conn, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	co.abortAll(conns, err.Error())
	return fmt.Errorf("timewarp: %w", err)
}

// listen is the coordinator's loop while the run is live: it sends the
// workers nothing. It folds every report into one sample of the clusters'
// published cycles — the tw_* series, the worker's trace ring, the probe,
// the dist_min_progress gauge and counter, the stall watchdog — until
// every worker has sent its result, and aborts the run when a worker is
// silent for the Watchdog before its result is in.
func (co *Coordinator) listen(conns []*nettrans.Conn, frames chan workerFrame) (*Result, error) {
	cfg := co.cfg
	k := cfg.Spec.K
	gMinProg := cfg.Obs.Registry().Gauge("dist_min_progress", "slowest cluster's reported cycle")
	wd := newWatchdog(k, cfg.Spec.Cycles, cfg.StallTimeout, cfg.RunTimeout, time.Now())
	progress := make([]uint64, k)
	results := make([]*distResult, cfg.Workers)
	heard := make([]time.Time, cfg.Workers) // each worker's last frame
	for i := range heard {
		heard[i] = time.Now()
	}
	fail := func(err error) (*Result, error) {
		co.abortAll(conns, err.Error())
		return nil, err
	}
	for pending := cfg.Workers; pending > 0; {
		// The next deadline is that of the worker without a result heard
		// from longest ago.
		quiet := -1
		for i, t := range heard {
			if results[i] == nil && (quiet < 0 || t.Before(heard[quiet])) {
				quiet = i
			}
		}
		var f workerFrame
		deadline := time.NewTimer(time.Until(heard[quiet].Add(cfg.Watchdog)))
		select {
		case f = <-frames:
			deadline.Stop()
		case <-deadline.C:
			return nil, co.abortf(conns, "watchdog: worker %d silent for %v", quiet, cfg.Watchdog)
		}
		// A worker keeps its control connection open until Finish, so every
		// read error is a death.
		if f.err != nil {
			return nil, co.abortf(conns, "worker %d died: %w", f.worker, f.err)
		}
		if results[f.worker] != nil {
			return nil, co.abortf(conns, "worker %d sent frame 0x%02x after its result", f.worker, f.typ)
		}
		heard[f.worker] = time.Now()
		var cs []clusterReport
		switch f.typ {
		case nettrans.FrameReport:
			r, err := decodeReport(f.payload, k)
			if err != nil {
				return fail(fmt.Errorf("timewarp: worker %d: %w", f.worker, err))
			}
			co.fed.absorb(f.worker, r)
			cs = r.Clusters
		case nettrans.FrameResult:
			r, err := decodeResult(f.payload, k)
			if err != nil {
				return fail(fmt.Errorf("timewarp: worker %d: %w", f.worker, err))
			}
			results[f.worker] = &r
			pending--
			cs = r.Clusters
		case nettrans.FrameAbort:
			a, _ := decodeAbort(f.payload)
			return nil, co.abortf(conns, "worker %d failed: %s", f.worker, a.Reason)
		default:
			return nil, co.abortf(conns, "worker %d sent unexpected frame 0x%02x", f.worker, f.typ)
		}
		if err := co.noteStats(f.worker, cs); err != nil {
			return fail(err)
		}
		for _, c := range cs {
			progress[c.Cluster] = c.Cycle
		}
		v := wd.step(progress, time.Now())
		cfg.Probe.note(v.minProg, v.moved)
		gMinProg.Set(int64(v.minProg))
		cfg.Obs.Count(obs.TrackKernel, "dist_min_progress", float64(v.minProg))
		if v.abort != "" {
			return nil, co.abortf(conns, "%s", v.abort)
		}
	}
	return co.finish(conns, results), nil
}

// finish tells every worker that every result is in, so that each may
// close its mesh and exit, and merges the results into the kernel's Result
// shape. Finish is best effort: a worker that cannot hear it has already
// delivered all it owes. Each worker's last report preceded its result,
// and each result's Stats overwrote the reported ones, so the
// coordinator's trace and tw_* series are complete — the series equal
// Result.PerCluster — by the time the Result exists.
func (co *Coordinator) finish(conns []*nettrans.Conn, results []*distResult) *Result {
	for _, conn := range conns {
		conn.Send(nettrans.FrameFinish, nil)
		conn.Close()
	}
	return mergeResults(co.cfg.Spec.K, results)
}
