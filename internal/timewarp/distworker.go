package timewarp

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
	"repro/internal/obs"
)

// WorkerOptions configures one worker process of a distributed run.
type WorkerOptions struct {
	// Coordinator is the control-plane address to dial (required).
	Coordinator string
	// Bind is the data-plane listen address peers will dial
	// (default "127.0.0.1:0").
	Bind string
	// Obs, when enabled, turns on the observability federation: the
	// worker ships registry snapshots and trace-ring batches to the
	// coordinator piggybacked on every GVT round and on termination.
	Obs *obs.Observer
	// Probe receives the worker-local liveness view (driven by the
	// coordinator's GVT broadcasts and local cluster progress) — the
	// state behind vsimd's /healthz.
	Probe *Probe
	// DialTimeout bounds the coordinator and peer dials (default 5s).
	DialTimeout time.Duration
	// FailAfter, when positive, drops every connection abruptly after
	// this duration — the injected crash the kill-a-worker test uses to
	// prove the coordinator aborts instead of hanging. Never set it
	// outside tests.
	FailAfter time.Duration
}

// RunWorker joins a distributed run as one worker: it dials the
// coordinator, receives its cluster assignment and the run spec, meshes
// with its peer workers over TCP, simulates its share of the clusters,
// and obeys the coordinator's GVT/finish/abort protocol. It returns nil
// after a clean finish and an error when the run aborted (locally or by
// coordinator decision).
func RunWorker(opts WorkerOptions) error {
	if opts.Coordinator == "" {
		return fmt.Errorf("timewarp: worker needs a coordinator address")
	}
	if opts.Bind == "" {
		opts.Bind = "127.0.0.1:0"
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}

	ln, err := net.Listen("tcp", opts.Bind)
	if err != nil {
		return fmt.Errorf("timewarp: worker data listen: %w", err)
	}
	defer ln.Close()

	rawCoord, err := net.DialTimeout("tcp", opts.Coordinator, opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("timewarp: dial coordinator %s: %w", opts.Coordinator, err)
	}
	coord := nettrans.NewConn(rawCoord)
	defer coord.Close()

	if err := coord.Send(nettrans.FrameHello,
		nettrans.AppendHello(nil, nettrans.Hello{
			DataAddr: ln.Addr().String(),
			// The coordinator rebases this worker's trace timestamps onto
			// its own clock from the start-instant difference.
			StartUnixNano: opts.Obs.StartUnixNano(),
		})); err != nil {
		return fmt.Errorf("timewarp: send hello: %w", err)
	}
	typ, payload, err := coord.Recv()
	if err != nil {
		return fmt.Errorf("timewarp: waiting for welcome: %w", err)
	}
	if typ == nettrans.FrameAbort {
		a, _ := decodeAbort(payload)
		return fmt.Errorf("timewarp: coordinator rejected worker: %s", a.Reason)
	}
	if typ != nettrans.FrameWelcome {
		return fmt.Errorf("timewarp: expected welcome, got frame type 0x%02x", typ)
	}
	welcome, err := nettrans.DecodeWelcome(payload)
	if err != nil {
		return err
	}
	spec, err := DecodeDistSpec(welcome.Config)
	if err != nil {
		return err
	}
	if spec.K != welcome.K || len(welcome.Placement) != spec.K {
		return fmt.Errorf("timewarp: welcome says k=%d with %d placements, spec says k=%d",
			welcome.K, len(welcome.Placement), spec.K)
	}

	w := &distWorker{
		opts:      opts,
		id:        welcome.WorkerID,
		numW:      welcome.NumWorkers,
		spec:      spec,
		placement: welcome.Placement,
		coord:     coord,
		ln:        ln,
		peers:     make([]*nettrans.Conn, welcome.NumWorkers),
	}
	return w.run(welcome.PeerAddrs)
}

// distWorker is the state of one worker process.
type distWorker struct {
	opts      WorkerOptions
	id        int
	numW      int
	spec      *DistSpec
	placement []int32
	coord     *nettrans.Conn
	ln        net.Listener
	peers     []*nettrans.Conn // indexed by worker id; nil at own slot

	mesh *meshTransport
	h    *host  // this worker's share of the clusters
	smp  sample // scratch for reports and probe notes

	stopGossip chan struct{}

	// Observability-federation state: the trace-ring streaming cursor and
	// the last ship instant (snapshots are throttled so a fast GVT cadence
	// does not turn into a metrics firehose).
	traceCursor uint64
	lastShip    time.Time
}

// run drives the worker after a successful handshake.
func (w *distWorker) run(peerAddrs []string) error {
	ed, err := w.spec.Elaborate()
	if err != nil {
		return err
	}
	if err := w.meshUp(peerAddrs); err != nil {
		return fmt.Errorf("timewarp: worker %d mesh: %w", w.id, err)
	}
	defer w.closePeers()

	cfg := w.spec.config(ed.Netlist)
	cfg.Obs, cfg.Probe = w.opts.Obs, w.opts.Probe
	w.mesh = newMeshTransport(w)
	cfg.Transport = w.mesh.factory()
	w.h, err = newHost(cfg, "dist", func(c int) bool { return int(w.placement[c]) == w.id })
	if err != nil {
		return err
	}
	w.mesh.net = w.h.net
	w.smp.progress = make([]uint64, w.spec.K)

	if err := w.coord.Send(nettrans.FrameReady, nil); err != nil {
		return fmt.Errorf("timewarp: send ready: %w", err)
	}
	typ, payload, err := w.coord.Recv()
	if err != nil {
		return fmt.Errorf("timewarp: waiting for start: %w", err)
	}
	if typ == nettrans.FrameAbort {
		a, _ := decodeAbort(payload)
		return fmt.Errorf("timewarp: aborted before start: %s", a.Reason)
	}
	if typ != nettrans.FrameStart {
		return fmt.Errorf("timewarp: expected start, got frame type 0x%02x", typ)
	}
	w.opts.Probe.attach(w.spec.Cycles)

	// The injected crash: drop everything mid-run, exactly as a killed
	// process would, and let the coordinator's watchdog prove itself. Armed
	// at the synchronized start, so the clock measures the run and cannot
	// beat the handshake on a loaded box.
	if w.opts.FailAfter > 0 {
		time.AfterFunc(w.opts.FailAfter, func() {
			w.h.cancelled.Store(true)
			w.coord.Close()
			w.ln.Close()
			w.closePeers()
		})
	}

	w.h.start(func(err error) {
		// Best effort: tell the coordinator why; it aborts the whole run
		// and relays the reason to every other worker.
		w.coord.Send(nettrans.FrameError,
			appendAbort(nil, distAbort{Reason: err.Error()}))
	})

	w.stopGossip = make(chan struct{})
	go w.gossipLoop()

	err = w.controlLoop()

	// Whatever ended the run, unwind in one order: stop gossip, wake the
	// clusters (making them abandon an unfinished run), wait for them, then
	// stop the transport (flushing nothing on the clean path, draining into
	// closed endpoints on abort).
	close(w.stopGossip)
	if err != nil {
		w.h.cancelled.Store(true)
	}
	w.h.closeEndpoints()
	if cerr := w.h.wait(); cerr != nil {
		err = cerr
	}
	w.h.net.CloseTransport()
	w.opts.Probe.finish(err)
	return err
}

// controlLoop obeys the coordinator until finish or abort. The return
// value is the run outcome from this worker's perspective.
func (w *distWorker) controlLoop() error {
	for {
		typ, payload, err := w.coord.Recv()
		if err != nil {
			if cerr := w.h.failure(); cerr != nil {
				return cerr // our own failure: the conn close is fallout
			}
			return fmt.Errorf("timewarp: worker %d lost coordinator: %w", w.id, err)
		}
		switch typ {
		case nettrans.FrameCut:
			round, err := decodeU64(payload, "cut")
			if err != nil {
				return err
			}
			w.mesh.flipEra(round)
			if err := w.coord.Send(nettrans.FrameReport,
				appendReport(nil, w.report(round))); err != nil {
				return fmt.Errorf("timewarp: worker %d send report: %w", w.id, err)
			}
			// Piggyback the observability federation on the round cadence:
			// a throttled registry snapshot plus the trace ring's new tail.
			w.shipObs(false)
		case nettrans.FrameGVT:
			gvt, err := decodeU64(payload, "gvt")
			if err != nil {
				return err
			}
			w.h.gvt.Store(gvt)
			// The worker-local liveness view: the coordinator-established
			// GVT plus the progress and straggler depth of its own clusters.
			w.h.sample(&w.smp)
			w.h.note(&w.smp, gvt, true)
			w.opts.Obs.Instant(obs.TrackKernel, "gvt_broadcast",
				obs.Arg{Key: "gvt", Val: float64(gvt)})
		case nettrans.FrameFinish:
			// Quiescent and done: wake the clusters, let them drain out,
			// then ship the final observability state and the merged local
			// result.
			w.h.closeEndpoints()
			w.h.wg.Wait()
			w.shipObs(true)
			if err := w.coord.Send(nettrans.FrameResult,
				appendResult(nil, *w.h.collect())); err != nil {
				return fmt.Errorf("timewarp: worker %d send result: %w", w.id, err)
			}
			return nil
		case nettrans.FrameAbort:
			a, err := decodeAbort(payload)
			if err != nil {
				return err
			}
			return fmt.Errorf("timewarp: run aborted: %s", a.Reason)
		default:
			return fmt.Errorf("timewarp: worker %d: unexpected control frame 0x%02x", w.id, typ)
		}
	}
}

// shipObsEvery throttles the piggybacked metrics/trace shipping: at the
// default 500µs round cadence a snapshot per round would dominate the
// control plane, so snapshots ride at most this often (the final ship at
// finish is unconditional).
const shipObsEvery = 10 * time.Millisecond

// shipObs sends the worker's registry snapshot and the unshipped tail of
// its trace ring to the coordinator. Best-effort: a send failure means
// the coordinator is gone, which the next control Recv surfaces as the
// real error. force skips the throttle (termination and abort paths).
func (w *distWorker) shipObs(force bool) {
	if !w.opts.Obs.Enabled() {
		return
	}
	now := time.Now()
	if !force && now.Sub(w.lastShip) < shipObsEvery {
		return
	}
	w.lastShip = now
	if err := w.coord.Send(nettrans.FrameMetrics, AppendSnapshot(nil, w.opts.Obs.Snapshot())); err != nil {
		return
	}
	events, next, dropped := w.opts.Obs.EventsSince(w.traceCursor)
	if len(events) == 0 && dropped == 0 && !force {
		return
	}
	if err := w.coord.Send(nettrans.FrameTrace, AppendTraceEvents(nil, events, dropped)); err != nil {
		return
	}
	w.traceCursor = next
}

// report snapshots the worker-local counters for one GVT round.
func (w *distWorker) report(round uint64) distReport {
	w.h.sample(&w.smp)
	r := distReport{
		Round:        round,
		Sent:         w.smp.sent,
		Absorbed:     w.smp.absorbed,
		MaxStraggler: w.smp.maxStraggler,
	}
	for _, cl := range w.h.clusters {
		r.Progress = append(r.Progress, clusterProgress{Cluster: cl.id, Cycle: w.smp.progress[cl.id]})
	}
	r.WireSent, r.WireRecv = w.mesh.takeEraDeltas()
	return r
}

// gossipLoop broadcasts local cluster progress to every peer so their
// optimism windows see this worker's clusters. Frequency trades window
// staleness (a throttle, never a correctness input) against wire chatter.
// The same tick pumps the mesh sockets: clusters poll them whenever they
// look in their mailboxes, but one parked in RecvWait at the end of its
// trace looks nowhere, and its stragglers must still arrive.
func (w *distWorker) gossipLoop() {
	tick := time.NewTicker(300 * time.Microsecond)
	defer tick.Stop()
	ps := make([]clusterProgress, len(w.h.clusters)) // as last gossiped
	buf := []byte(nil)
	for {
		select {
		case <-w.stopGossip:
			return
		case <-tick.C:
		}
		w.mesh.Poll()
		changed := false
		for i, cl := range w.h.clusters {
			v := w.h.progress[cl.id].Load()
			changed = changed || v != ps[i].Cycle
			ps[i] = clusterProgress{Cluster: cl.id, Cycle: v}
		}
		if !changed {
			continue
		}
		buf = appendProgressList(buf[:0], ps)
		for _, conn := range w.peers {
			if conn != nil {
				conn.Send(nettrans.FrameProgress, buf) // error = peer gone; abort arrives via control
			}
		}
	}
}

// peerFrame is the one handler of everything a mesh connection carries:
// data frames become local deliveries, progress frames update the shared
// progress view, anything else poisons the link. The payload is the
// poller's read buffer; nothing decoded from it may alias it.
func (w *distWorker) peerFrame(typ byte, payload []byte) error {
	switch typ {
	case nettrans.FrameData:
		df, err := nettrans.DecodeDataFrame(payload, w.spec.K)
		if err != nil {
			return err
		}
		msg, err := WireCodec().Decode(df.Msg)
		if err != nil {
			return err
		}
		w.mesh.noteRecv(df.Era)
		w.h.net.NoteArrived()
		w.mesh.deliver(df.Dst, msg)
	case nettrans.FrameProgress:
		ps, err := decodeProgressList(nettrans.NewDec(payload), w.spec.K)
		if err != nil {
			return err
		}
		for _, p := range ps {
			if int(w.placement[p.Cluster]) != w.id {
				w.h.progress[p.Cluster].Store(p.Cycle)
			}
		}
	default:
		return fmt.Errorf("unexpected frame type 0x%02x", typ)
	}
	return nil
}

// failLink reports a poisoned mesh link to the coordinator; a garbled
// data plane can neither be trusted nor repaired, so the run must abort.
func (w *distWorker) failLink(peer int, err error) {
	w.coord.Send(nettrans.FrameError, appendAbort(nil, distAbort{
		Reason: fmt.Sprintf("worker %d: bad frame from peer %d: %v", w.id, peer, err),
	}))
}

// meshUp establishes the full worker mesh: this worker dials every lower
// id and accepts a connection from every higher id, so each pair shares
// exactly one duplex TCP stream.
func (w *distWorker) meshUp(peerAddrs []string) error {
	type acceptRes struct {
		id   int
		conn *nettrans.Conn
		err  error
	}
	expect := w.numW - 1 - w.id
	acceptCh := make(chan acceptRes, expect)
	if expect > 0 {
		go func() {
			for i := 0; i < expect; i++ {
				raw, err := w.ln.Accept()
				if err != nil {
					acceptCh <- acceptRes{err: err}
					return
				}
				conn := nettrans.NewConn(raw)
				typ, payload, err := conn.Recv()
				if err == nil && typ != nettrans.FramePeerHello {
					err = fmt.Errorf("expected peer hello, got frame type 0x%02x", typ)
				}
				if err != nil {
					conn.Close()
					acceptCh <- acceptRes{err: err}
					return
				}
				ph, err := nettrans.DecodePeerHello(payload, w.numW)
				if err != nil {
					conn.Close()
					acceptCh <- acceptRes{err: err}
					return
				}
				acceptCh <- acceptRes{id: ph.WorkerID, conn: conn}
			}
		}()
	}
	for j := 0; j < w.id; j++ {
		raw, err := net.DialTimeout("tcp", peerAddrs[j], w.opts.DialTimeout)
		if err != nil {
			return fmt.Errorf("dial peer %d at %s: %w", j, peerAddrs[j], err)
		}
		conn := nettrans.NewConn(raw)
		if err := conn.Send(nettrans.FramePeerHello,
			nettrans.AppendPeerHello(nil, nettrans.PeerHello{WorkerID: w.id})); err != nil {
			conn.Close()
			return fmt.Errorf("peer hello to %d: %w", j, err)
		}
		w.peers[j] = conn
	}
	for i := 0; i < expect; i++ {
		select {
		case r := <-acceptCh:
			if r.err != nil {
				return fmt.Errorf("accept peer: %w", r.err)
			}
			if r.id <= w.id || w.peers[r.id] != nil {
				r.conn.Close()
				return fmt.Errorf("unexpected peer hello from worker %d", r.id)
			}
			w.peers[r.id] = r.conn
		case <-time.After(w.opts.DialTimeout):
			return fmt.Errorf("timed out waiting for %d peer connections", expect-i)
		}
	}
	return nil
}

func (w *distWorker) closePeers() {
	for _, conn := range w.peers {
		if conn != nil {
			conn.Close()
		}
	}
}

// meshTransport is the comm.Transport of a worker's K-cluster network:
// cluster-to-cluster sends stay in-process when both ends are local and
// become era-colored data frames on the owning peer's mesh connection
// otherwise. The era tallies it keeps are the piggybacked white/black
// counts the coordinator's Mattern rounds consume.
type meshTransport struct {
	w       *distWorker
	net     *comm.Network // set after construction, before any traffic
	deliver comm.DeliverFunc

	era atomic.Uint64

	// pollMu admits one poller at a time; the rest find it taken and go on
	// with what is already in their mailboxes. down marks links that ended
	// (peer finished, died, or sent garbage) and are polled no more.
	pollMu sync.Mutex
	down   []bool

	encMu  sync.Mutex
	encBuf []byte

	tallyMu   sync.Mutex
	sentByEra map[uint64]uint64
	recvByEra map[uint64]uint64
}

func newMeshTransport(w *distWorker) *meshTransport {
	return &meshTransport{
		w:         w,
		down:      make([]bool, w.numW),
		sentByEra: make(map[uint64]uint64),
		recvByEra: make(map[uint64]uint64),
	}
}

// factory adapts the transport to comm.TransportFactory, capturing the
// network's delivery sink.
func (t *meshTransport) factory() comm.TransportFactory {
	return func(k int, deliver comm.DeliverFunc) comm.Transport {
		t.deliver = deliver
		return t
	}
}

func (t *meshTransport) flipEra(era uint64) { t.era.Store(era) }

// noteRecv tallies one received data frame under its wire color.
func (t *meshTransport) noteRecv(era uint64) {
	t.tallyMu.Lock()
	t.recvByEra[era]++
	t.tallyMu.Unlock()
}

// takeEraDeltas drains the per-era tallies accumulated since the last
// report. The coordinator folds them into cumulative global counts.
func (t *meshTransport) takeEraDeltas() (sent, recv []eraCount) {
	t.tallyMu.Lock()
	defer t.tallyMu.Unlock()
	for era, n := range t.sentByEra {
		sent = append(sent, eraCount{Era: era, Count: n})
		delete(t.sentByEra, era)
	}
	for era, n := range t.recvByEra {
		recv = append(recv, eraCount{Era: era, Count: n})
		delete(t.recvByEra, era)
	}
	return sent, recv
}

// Send routes one kernel message: local destinations deliver in-process,
// remote ones serialize onto the owning worker's mesh stream. Per-link
// FIFO holds because each cluster goroutine emits its messages in order
// onto a single TCP stream per destination worker.
func (t *meshTransport) Send(src, dst int, msg comm.Message) {
	owner := int(t.w.placement[dst])
	if owner == t.w.id {
		t.deliver(dst, msg)
		return
	}
	conn := t.w.peers[owner]
	era := t.era.Load()

	// Tallied before it is written: the peer can read, tally and absorb the
	// frame the moment the write returns, and a round that saw that receive
	// without this send would take the frame for lost. An untallied frame
	// is one nobody can have received.
	t.tallyMu.Lock()
	t.sentByEra[era]++
	t.tallyMu.Unlock()

	t.encMu.Lock()
	buf := t.encBuf[:0]
	buf = nettrans.AppendDataFrame(buf, src, dst, era, nil)
	var err error
	buf, err = WireCodec().Append(buf, msg)
	if err != nil {
		t.encMu.Unlock()
		// Unencodable payloads are programming errors, same contract as
		// the loopback transport.
		panic(fmt.Sprintf("timewarp: wire-encode %T: %v", msg, err))
	}
	sendErr := conn.Send(nettrans.FrameData, buf)
	t.encBuf = buf
	t.encMu.Unlock()

	// Departed this process — whether the write succeeded or the peer is
	// already gone (in which case the coordinator is about to abort and
	// the counters stop mattering), it no longer counts as locally held.
	t.net.NoteDeparted()
	if sendErr != nil {
		// Not sent after all: the tally is taken back, unless a report has
		// carried it off already.
		t.tallyMu.Lock()
		if n := t.sentByEra[era]; n > 0 {
			t.sentByEra[era] = n - 1
		}
		t.tallyMu.Unlock()
	}
}

// Poll drains every mesh socket into the local mailboxes and the progress
// view without blocking — the receive half of the data plane (DESIGN §21).
// There is no reader goroutine: the clusters call this through
// Endpoint.TryRecvAll each time they look for messages, and the gossip tick
// calls it while they are parked. A link that ended quietly (the peer
// finished, or died — the coordinator's control connection says which) is
// dropped from the rounds; one that carried something illegal is reported
// first, because a garbled data plane can neither be trusted nor repaired.
func (t *meshTransport) Poll() {
	if !t.pollMu.TryLock() {
		return
	}
	defer t.pollMu.Unlock()
	for p, conn := range t.w.peers {
		if conn == nil || t.down[p] {
			continue
		}
		if err := conn.TryRecv(t.w.peerFrame); err != nil {
			t.down[p] = true
			if !nettrans.LinkDown(err) {
				t.w.failLink(p, err)
			}
		}
	}
}

// Close is a no-op: the worker owns the mesh connections and closes them
// in its own shutdown order.
func (t *meshTransport) Close() {}
