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

// roundEvery is the round cadence: how long the coordinator idles between
// rounds, listening for a crash or an error frame.
const roundEvery = 500 * time.Microsecond

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
	// Watchdog bounds every per-worker wait: handshake, round reports and
	// final results. A worker that exceeds it is declared dead and the
	// run aborts — the crash/timeout path (default 5s).
	Watchdog time.Duration
	// StallTimeout and RunTimeout mirror Config: inactivity abort and
	// hard wall-clock cap (0 = unbounded).
	StallTimeout time.Duration
	RunTimeout   time.Duration
	// Probe receives live liveness state, exactly as Config.Probe does
	// for the in-process kernel; an abort surfaces through it as a
	// failed state with the diagnosis.
	Probe *Probe
	// Obs, when enabled, instruments the rounds (per-round gauges,
	// latency histogram, gvt_round spans), registers every cluster's
	// Stats-backed tw_* series over the counters its worker last reported,
	// and merges the workers' shipped trace rings — one /metrics scrape or
	// trace covers the whole run.
	Obs *obs.Observer
	// PostMortemDir, when non-empty, receives a flight-recorder bundle
	// (metrics, merged trace tail, probe states, goroutine dump)
	// whenever the run aborts.
	PostMortemDir string
}

// Coordinator drives a distributed Time Warp run: it assigns clusters to
// workers, runs the rounds (each folds the workers' reports into one
// quiescence sample), detects crashed or wedged workers, and merges the
// per-worker results into the same Result the in-process kernel returns.
type Coordinator struct {
	cfg       CoordConfig
	ln        net.Listener
	placement []int32
	fed       *coordFed
	// stats holds, per cluster, the Stats its worker last reported: each
	// round's report overwrites it, the worker's result at finish too. The
	// coordinator's tw_* series read it.
	statsMu sync.Mutex
	stats   []Stats
	// registered marks the clusters whose series exist.
	registered []bool
	// finished marks the workers whose result arrived: they close their
	// control connection right after it, so that EOF is the normal exit,
	// not a death.
	finished []bool
	// pmOnce guards the abort-time bundle write: repeated abort signals
	// (a dying worker racing the watchdog, a double fail) write the
	// post-mortem bundle exactly once.
	pmOnce sync.Once
}

// coordFed is the coordinator-retained trace state: per-worker clock
// offsets from the handshake and one trace ring per worker fed by the
// worker's FrameTrace batches. The merged cluster trace and the
// post-mortem bundle are written from it and from the coordinator's own
// ring (whose gvt_round spans are the round history) — everything is
// already here when a worker dies, so an abort costs no extra collection.
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

// absorbTrace consumes a worker's trace batch into the worker's ring.
// Returns handled=false for every other frame type; a malformed payload
// is a protocol violation like any other.
func (co *Coordinator) absorbTrace(f workerFrame) (handled bool, err error) {
	if f.typ != nettrans.FrameTrace {
		return false, nil
	}
	events, lost, err := DecodeTraceEvents(f.payload)
	if err != nil {
		return true, fmt.Errorf("timewarp: worker %d trace: %w", f.worker, err)
	}
	fd := co.fed
	fd.mu.Lock()
	fd.lost[f.worker] += lost
	fd.mu.Unlock()
	for _, e := range events {
		fd.rings[f.worker].Push(e)
	}
	return true, nil
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
		stats: make([]Stats, cfg.Spec.K), registered: make([]bool, cfg.Spec.K),
		finished: make([]bool, cfg.Workers)}, nil
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

	// Phase 1: handshake. Workers connect in any order; ids are assigned
	// in accept order.
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

	specBlob := AppendDistSpec(nil, cfg.Spec)
	for i, conn := range conns {
		w := nettrans.Welcome{
			WorkerID:   i,
			NumWorkers: cfg.Workers,
			K:          cfg.Spec.K,
			Placement:  co.placement,
			PeerAddrs:  dataAddrs,
			Config:     specBlob,
		}
		if err := conn.Send(nettrans.FrameWelcome, nettrans.AppendWelcome(nil, w)); err != nil {
			return co.fail(co.abortf(conns, "worker %d unreachable at welcome: %w", i, err))
		}
	}

	// One reader per worker funnels every control frame into the event
	// loop, so crashes surface as read errors no matter what phase the
	// protocol is in.
	frames := make(chan workerFrame, 4*cfg.Workers)
	for i, conn := range conns {
		i, conn := i, conn
		go func() {
			for {
				typ, payload, err := conn.Recv()
				frames <- workerFrame{worker: i, typ: typ, payload: payload, err: err}
				if err != nil {
					return
				}
			}
		}()
	}

	// Phase 2: wait for every worker's Ready (mesh established), then
	// fire the synchronized start.
	if err := co.gather(frames, conns, nettrans.FrameReady, "ready", func(workerFrame) error { return nil }); err != nil {
		return co.fail(err)
	}
	for i, conn := range conns {
		if err := conn.Send(nettrans.FrameStart, nil); err != nil {
			return co.fail(co.abortf(conns, "worker %d unreachable at start: %w", i, err))
		}
	}

	cfg.Probe.attach(cfg.Spec.Cycles)
	res, err := co.rounds(conns, frames)
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

// pollFrame waits up to timeout for one protocol frame (ok=false when none
// came), turning worker errors and worker death into run aborts.
// Trace batches are absorbed in place — they can arrive interleaved with
// any solicited frame — so callers only ever see protocol frames.
func (co *Coordinator) pollFrame(frames chan workerFrame, timeout time.Duration, conns []*nettrans.Conn) (f workerFrame, ok bool, err error) {
	deadline := time.After(timeout)
	for {
		select {
		case f := <-frames:
			if f.err != nil {
				if co.finished[f.worker] {
					continue
				}
				return f, false, co.abortf(conns, "worker %d died: %w", f.worker, f.err)
			}
			if f.typ == nettrans.FrameError {
				a, _ := decodeAbort(f.payload)
				return f, false, co.abortf(conns, "worker %d failed: %s", f.worker, a.Reason)
			}
			if handled, err := co.absorbTrace(f); handled {
				if err != nil {
					co.abortAll(conns, err.Error())
					return f, false, err
				}
				continue
			}
			return f, true, nil
		case <-deadline:
			return workerFrame{}, false, nil
		}
	}
}

// gather waits, under the watchdog, for exactly one frame of type want
// from every worker and hands each to use. Per-connection FIFO means
// anything else is a protocol violation, not skew.
func (co *Coordinator) gather(frames chan workerFrame, conns []*nettrans.Conn, want byte, what string, use func(workerFrame) error) error {
	seen := make([]bool, co.cfg.Workers)
	for n := 0; n < co.cfg.Workers; n++ {
		f, ok, err := co.pollFrame(frames, co.cfg.Watchdog, conns)
		if err == nil && !ok {
			err = co.abortf(conns, "watchdog: no worker activity within %v", co.cfg.Watchdog)
		}
		if err != nil {
			return err
		}
		if f.typ != want || seen[f.worker] {
			return co.abortf(conns, "worker %d sent frame 0x%02x while its %s was due", f.worker, f.typ, what)
		}
		seen[f.worker] = true
		if err := use(f); err != nil {
			co.abortAll(conns, err.Error())
			return err
		}
	}
	return nil
}

// rounds is the quiescence loop: periodic cuts, report collection, one
// quiescence sample per round, termination and the stall/crash watchdogs.
// It owns the run from start to finish/abort.
func (co *Coordinator) rounds(conns []*nettrans.Conn, frames chan workerFrame) (*Result, error) {
	cfg := co.cfg
	k := cfg.Spec.K

	// Per-round instrumentation. Registration and the Set/Observe calls
	// are nil-safe, so an uninstrumented coordinator pays only dead
	// branches here.
	reg := cfg.Obs.Registry()
	var (
		gRound    = reg.Gauge("dist_round", "rounds opened by the coordinator")
		gMinProg  = reg.Gauge("dist_min_progress", "slowest cluster's reported cycle")
		gFreeze   = reg.Gauge("dist_freeze_streak", "consecutive quiescent all-done rounds (two terminate the run)")
		hRoundLat = reg.Histogram("dist_round_latency_us", "cut broadcast to last report (µs)",
			[]float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000})
	)

	var (
		round    uint64
		q        = newQuiescence(k, cfg.Spec.Cycles, cfg.StallTimeout, cfg.RunTimeout, time.Now())
		s        = sample{progress: make([]uint64, k)}
		reported = make([]bool, k)
	)

	for {
		// Idle between rounds, but keep listening: a worker crash or a
		// FrameError must cut the nap short, and trace batches from a
		// worker's throttled shipper are absorbed here.
		if f, ok, err := co.pollFrame(frames, roundEvery, conns); err != nil {
			return nil, err
		} else if ok {
			return nil, co.abortf(conns, "worker %d sent unsolicited frame 0x%02x", f.worker, f.typ)
		}

		// Cut: ask every worker for its counters, stamped with this round.
		round++
		gRound.Set(int64(round))
		roundT0 := time.Now()
		cutPayload := nettrans.AppendU64(nil, round)
		for i, conn := range conns {
			if err := conn.Send(nettrans.FrameCut, cutPayload); err != nil {
				return nil, co.abortf(conns, "worker %d unreachable at cut %d: %w", i, round, err)
			}
		}

		// Collect one report per worker and fold it into the sample.
		s.sent, s.absorbed = 0, 0
		err := co.gather(frames, conns, nettrans.FrameReport, "report", func(f workerFrame) error {
			r, err := decodeReport(f.payload, k)
			if err != nil {
				return err
			}
			if r.Round != round {
				return fmt.Errorf("timewarp: worker %d answered round %d during round %d", f.worker, r.Round, round)
			}
			if err := co.noteStats(f.worker, r.Clusters); err != nil {
				return err
			}
			s.sent += r.Sent
			s.absorbed += r.Absorbed
			for _, c := range r.Clusters {
				s.progress[c.Cluster] = c.Cycle
				reported[c.Cluster] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		roundLatUS := int64(time.Since(roundT0) / time.Microsecond)
		hRoundLat.Observe(float64(roundLatUS))

		s.complete = true
		for _, ok := range reported {
			s.complete = s.complete && ok
		}
		s.now = time.Now()
		v := q.step(s)
		cfg.Probe.note(v.minProg, v.active)

		// Round instrumentation, recorded after the verdict so the
		// terminal round is captured with its final values. The gvt_round
		// spans are the flight recorder's round history.
		gMinProg.Set(int64(v.minProg))
		gFreeze.Set(int64(q.doneStreak))
		cfg.Obs.Span(obs.TrackKernel, "gvt_round", roundT0,
			obs.Arg{Key: "round", Val: float64(round)},
			obs.Arg{Key: "min_progress", Val: float64(v.minProg)},
			obs.BoolArg("frozen", v.frozen))
		if v.terminate {
			return co.finish(conns, frames)
		}
		if v.abort != "" {
			return nil, co.abortf(conns, "%s", v.abort)
		}
	}
}

// finish tells every worker to wrap up, collects their results and
// merges them into the kernel's Result shape. Workers ship their trace
// tail just before the result, and each result's Stats overwrite the
// reported ones, so the coordinator's trace and tw_* series are complete
// — the series equal Result.PerCluster — by the time the Result exists.
func (co *Coordinator) finish(conns []*nettrans.Conn, frames chan workerFrame) (*Result, error) {
	cfg := co.cfg
	for i, conn := range conns {
		if err := conn.Send(nettrans.FrameFinish, nil); err != nil {
			return nil, co.abortf(conns, "worker %d unreachable at finish: %w", i, err)
		}
	}
	results := make([]*distResult, 0, cfg.Workers)
	err := co.gather(frames, conns, nettrans.FrameResult, "result", func(f workerFrame) error {
		r, err := decodeResult(f.payload, cfg.Spec.K)
		if err != nil {
			return err
		}
		if err := co.noteStats(f.worker, r.Clusters); err != nil {
			return err
		}
		results = append(results, &r)
		co.finished[f.worker] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, conn := range conns {
		conn.Close()
	}

	return mergeResults(cfg.Spec.K, results), nil
}
