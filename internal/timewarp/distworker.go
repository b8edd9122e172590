package timewarp

import (
	"fmt"
	"net"
	"slices"
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
	// Obs, when enabled, instruments the worker's clusters and ships its
	// trace ring to the coordinator, throttled on the round cadence and in
	// full on termination. The kernel counters reach the coordinator in
	// every round report regardless.
	Obs *obs.Observer
	// Probe receives the worker-local liveness view (the progress of its
	// own clusters, noted at every round report) — the state behind
	// vsimd's /healthz.
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
// and obeys the coordinator's round/finish/abort protocol. It returns nil
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

	stopPoll chan struct{}

	// Trace-shipping state: the ring's streaming cursor and the last ship
	// instant (batches are throttled so a fast round cadence does not turn
	// into a trace firehose).
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
	w.mesh.routeMarks(w.h)
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

	w.stopPoll = make(chan struct{})
	go w.pollLoop()

	err = w.controlLoop()

	// Whatever ended the run, unwind in one order: stop polling, wake the
	// clusters (making them abandon an unfinished run), wait for them, then
	// stop the transport (flushing nothing on the clean path, draining into
	// closed endpoints on abort).
	close(w.stopPoll)
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
			if err := w.coord.Send(nettrans.FrameReport,
				appendReport(nil, w.report(round))); err != nil {
				return fmt.Errorf("timewarp: worker %d send report: %w", w.id, err)
			}
			// Piggyback the trace ring's new tail on the round cadence.
			w.shipTrace(false)
		case nettrans.FrameFinish:
			// Quiescent and done: wake the clusters, let them drain out,
			// then ship the trace tail and the merged local result.
			w.h.closeEndpoints()
			w.h.wg.Wait()
			w.shipTrace(true)
			r := w.h.collect()
			r.WireSent, r.WireRecv = w.mesh.framesSent.Load(), w.mesh.framesRecv.Load()
			if err := w.coord.Send(nettrans.FrameResult, appendResult(nil, *r)); err != nil {
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

// shipTraceEvery throttles the piggybacked trace shipping: at the default
// 500µs round cadence a batch per round would dominate the control plane
// (the final ship at finish is unconditional).
const shipTraceEvery = 10 * time.Millisecond

// shipTrace sends the unshipped tail of the worker's trace ring to the
// coordinator. Best-effort: a send failure means the coordinator is gone,
// which the next control Recv surfaces as the real error. force skips the
// throttle (termination).
func (w *distWorker) shipTrace(force bool) {
	if !w.opts.Obs.Enabled() {
		return
	}
	now := time.Now()
	if !force && now.Sub(w.lastShip) < shipTraceEvery {
		return
	}
	w.lastShip = now
	events, next, dropped := w.opts.Obs.EventsSince(w.traceCursor)
	if len(events) == 0 && dropped == 0 && !force {
		return
	}
	if err := w.coord.Send(nettrans.FrameTrace, AppendTraceEvents(nil, events, dropped)); err != nil {
		return
	}
	w.traceCursor = next
}

// report snapshots the worker-local counters for one round, and notes the
// progress of its own clusters on the worker's liveness probe.
func (w *distWorker) report(round uint64) distReport {
	w.h.sample(&w.smp)
	w.h.note(&w.smp, true)
	r := distReport{Round: round, Sent: w.smp.sent, Absorbed: w.smp.absorbed}
	for _, cl := range w.h.clusters {
		r.Clusters = append(r.Clusters, clusterReport{
			Cluster: cl.id, Cycle: w.smp.progress[cl.id], Stats: cl.stats.Snapshot()})
	}
	return r
}

// pollLoop pumps the mesh sockets on a tick. Clusters poll them only while
// they wait for a watermark; one asleep in AwaitHeard, or in RecvWait at
// the end of its trace, polls nothing, and what it waits for must still
// arrive.
func (w *distWorker) pollLoop() {
	tick := time.NewTicker(300 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stopPoll:
			return
		case <-tick.C:
		}
		w.mesh.Poll()
	}
}

// peerFrame is the one handler of everything a mesh connection carries:
// data frames become local deliveries, watermark frames reach every local
// cluster, anything else poisons the link. The payload is the poller's
// read buffer; nothing decoded from it may alias it.
func (w *distWorker) peerFrame(typ byte, payload []byte) error {
	switch typ {
	case nettrans.FrameData:
		df, err := nettrans.DecodeDataFrame(payload, w.spec.K)
		if err != nil {
			return err
		}
		msg, err := decodeMessage(df.Msg)
		if err != nil {
			return err
		}
		w.mesh.framesRecv.Add(1)
		w.h.net.NoteArrived()
		w.mesh.deliver(df.Dst, msg)
	case nettrans.FrameProgress:
		src, through, err := decodeMark(payload, w.spec.K)
		if err != nil {
			return err
		}
		if int(w.placement[src]) == w.id {
			return fmt.Errorf("watermark of cluster %d, which is placed on this worker", src)
		}
		w.mesh.markLocal(int(src), through)
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
// become data frames on the owning peer's mesh connection otherwise.
type meshTransport struct {
	w       *distWorker
	net     *comm.Network // set after construction, before any traffic
	deliver comm.DeliverFunc
	mark    comm.MarkFunc

	// markTo[c] lists the peer workers that read local cluster c's
	// watermark (routeMarks); set with net.
	markTo [][]int

	// pollMu admits one poller at a time; the rest find it taken and go on
	// with what is already in their mailboxes. down marks links that ended
	// (peer finished, died, or sent garbage) and are polled no more.
	pollMu sync.Mutex
	down   []bool

	// encMu serializes encoding into encBuf and the queue counts: queued[p]
	// data frames wait in peer p's write buffer for the next flush.
	encMu  sync.Mutex
	encBuf []byte
	queued []uint64

	// framesSent and framesRecv count the data frames written to and read
	// from the mesh: the worker's share of Result.WireFrames*. A frame
	// counts as written when the flush that carries it succeeds.
	framesSent, framesRecv atomic.Uint64
}

func newMeshTransport(w *distWorker) *meshTransport {
	return &meshTransport{w: w, down: make([]bool, w.numW), queued: make([]uint64, w.numW)}
}

// routeMarks lists, for each cluster h runs, the peer workers that read its
// watermark: those hosting one of its senders, whose holdBack waits for it,
// or one of its receivers, whose awaitSenders does. No other cluster reads
// a watermark, so Mark sends a peer outside the list none.
func (t *meshTransport) routeMarks(h *host) {
	t.markTo = make([][]int, len(t.w.placement))
	for _, cl := range h.clusters {
		var to []int
		for _, c := range slices.Concat(cl.prog.senders, cl.prog.receivers) {
			if p := int(t.w.placement[c]); p != t.w.id && !slices.Contains(to, p) {
				to = append(to, p)
			}
		}
		slices.Sort(to)
		t.markTo[cl.id] = to
	}
}

// factory adapts the transport to comm.TransportFactory, capturing the
// network's delivery sink.
func (t *meshTransport) factory() comm.TransportFactory {
	return func(k int, deliver comm.DeliverFunc, mark comm.MarkFunc) comm.Transport {
		t.deliver, t.mark = deliver, mark
		return t
	}
}

// Send routes one kernel message: local destinations deliver in-process,
// remote ones are queued as a data frame in the owning worker's mesh
// write buffer, where they wait for src's next Mark. Per-link FIFO holds
// because each cluster goroutine emits its messages and then its watermark
// in order onto a single TCP stream per destination worker.
func (t *meshTransport) Send(src, dst int, msg comm.Message) {
	owner := int(t.w.placement[dst])
	if owner == t.w.id {
		t.deliver(dst, msg)
		return
	}
	conn := t.w.peers[owner]

	// The message already counts as sent (Endpoint.Send counted it before
	// calling here), so until its receiver absorbs it no quiescence sample
	// can freeze: the frame in the buffer or on the wire needs no count of
	// its own.
	t.encMu.Lock()
	buf := t.encBuf[:0]
	buf = nettrans.AppendDataFrame(buf, src, dst, nil)
	var err error
	buf, err = appendMessage(buf, msg)
	if err != nil {
		t.encMu.Unlock()
		// An unencodable payload is a programming error (an unknown message
		// type), not a runtime condition.
		panic(fmt.Sprintf("timewarp: wire-encode %T: %v", msg, err))
	}
	if conn.Queue(nettrans.FrameData, buf) == nil {
		t.queued[owner]++
	}
	t.encBuf = buf
	t.encMu.Unlock()

	// Departed this process — whether the write will succeed or the peer
	// is already gone (in which case the coordinator is about to abort and
	// the counters stop mattering), it no longer counts as locally held.
	t.net.NoteDeparted()
}

// Mark hands src's watermark to the local clusters at once and sends it as
// one watermark frame to each peer worker that reads it (routeMarks),
// behind the data frames src queued on that peer's stream before: the
// frame flushes them, so a cycle costs one write per link, and each stream
// is FIFO. The frame is encoded in the shared buffer, so a watermark
// allocates nothing.
func (t *meshTransport) Mark(src int, through uint64) {
	t.markLocal(src, through)
	t.encMu.Lock()
	defer t.encMu.Unlock()
	t.encBuf = appendMark(t.encBuf[:0], int32(src), through)
	for _, p := range t.markTo[src] {
		// An error means the peer is gone, and the abort arrives via
		// control; the frames the buffer held never reached the wire.
		if t.w.peers[p].Send(nettrans.FrameProgress, t.encBuf) == nil {
			t.framesSent.Add(t.queued[p])
		}
		t.queued[p] = 0
	}
}

// markLocal files src's watermark at every cluster of this worker.
func (t *meshTransport) markLocal(src int, through uint64) {
	for dst, owner := range t.w.placement {
		if int(owner) == t.w.id && dst != src {
			t.mark(src, dst, through)
		}
	}
}

// Poll drains every mesh socket into the local mailboxes and watermarks
// without blocking — the receive half of the data plane (DESIGN §21).
// There is no reader goroutine: the clusters call this while they wait for
// a watermark, which arrives behind the data frames it covers, and the poll
// tick calls it while they sleep. A link that ended quietly (the peer
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
