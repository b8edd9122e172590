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
	// Obs, when enabled, instruments the worker's clusters and ships the
	// new tail of its trace ring to the coordinator in every report. The
	// kernel counters reach the coordinator in every report regardless.
	Obs *obs.Observer
	// Probe receives the worker-local liveness view (the progress of its
	// own clusters, noted at every report) — the state behind vsimd's
	// /healthz.
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
// and reports to the coordinator every reportEvery until they have run
// their cycles; then it sends its result and waits for finish or abort.
// It returns nil after a clean finish and an error when the run aborted
// (locally or by coordinator decision).
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
	welcome, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	w := &distWorker{
		opts:      opts,
		id:        welcome.WorkerID,
		spec:      welcome.Spec,
		placement: welcome.Placement,
		coord:     coord,
		ln:        ln,
		peers:     make([]*nettrans.Conn, len(welcome.PeerAddrs)),
	}
	return w.run(welcome.PeerAddrs)
}

// distWorker is the state of one worker process.
type distWorker struct {
	opts      WorkerOptions
	id        int
	spec      *DistSpec
	placement []int32
	coord     *nettrans.Conn
	ln        net.Listener
	peers     []*nettrans.Conn // indexed by worker id; nil at own slot

	mesh *meshTransport
	h    *host // this worker's share of the clusters

	// traceCursor is the trace ring's streaming cursor: the first event no
	// report has shipped yet.
	traceCursor uint64
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
	w.mesh.routeMarks(w.h)

	// The clusters start now, whatever the peers are doing: a cluster's
	// cycle 0 reads only power-on values, and every later cycle waits for
	// its senders' watermarks, which a peer still building its host has
	// not sent yet (DESIGN §26). Frames to such a peer wait in its socket.
	w.opts.Probe.attach(w.spec.Cycles)

	// The injected crash: drop everything mid-run, exactly as a killed
	// process would, and let the coordinator's watchdog prove itself. Armed
	// as the clusters start, so the clock measures the run and cannot beat
	// the handshake on a loaded box.
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
		w.coord.Send(nettrans.FrameAbort,
			appendAbort(nil, distAbort{Reason: err.Error()}))
	})

	err = w.controlLoop()

	// Whatever ended the run, unwind in one order: make the clusters
	// abandon an unfinished run, wait for them, then stop the transport
	// (flushing no frame on the clean path, draining into closed
	// endpoints on abort).
	if err != nil {
		w.h.abort()
	}
	if cerr := w.h.wait(); cerr != nil {
		err = cerr
	}
	w.h.net.CloseTransport()
	w.opts.Probe.finish(err)
	return err
}

// reportEvery is the heartbeat of a running worker: how often it reports
// its clusters' progress and counters, and its trace ring's new tail, to
// the coordinator, which declares a worker silent for its Watchdog dead.
const reportEvery = 10 * time.Millisecond

// controlLoop reports to the coordinator every reportEvery until this
// worker's clusters have run their cycles, then sends a last report and
// its result and waits for Finish. It keeps the mesh open until then: a
// peer may still be reading it, and a socket closed with bytes unread is
// reset, which can discard what the peer has not read yet. While the run
// is live the coordinator sends nothing but an Abort. The return value is
// the run outcome from this worker's perspective.
func (w *distWorker) controlLoop() error {
	ended := make(chan error, 1)
	go func() { ended <- w.awaitEnd() }()
	clustersDone := make(chan struct{})
	go func() {
		w.h.wg.Wait()
		close(clustersDone)
	}()
	tick := time.NewTicker(reportEvery)
	defer tick.Stop()
	for {
		select {
		case err := <-ended:
			if err == nil {
				err = fmt.Errorf("timewarp: worker %d told to finish before it sent its result", w.id)
			}
			return err
		case <-tick.C:
			if err := w.report(); err != nil {
				return err
			}
		case <-clustersDone:
			if err := w.h.failure(); err != nil {
				return err
			}
			if err := w.report(); err != nil {
				return err
			}
			r := w.h.collect()
			r.WireSent, r.WireRecv = w.mesh.framesSent.Load(), w.mesh.framesRecv.Load()
			if err := w.coord.Send(nettrans.FrameResult, appendResult(nil, *r)); err != nil {
				return fmt.Errorf("timewarp: worker %d send result: %w", w.id, err)
			}
			return <-ended
		}
	}
}

// awaitEnd reads the one frame the coordinator sends after the welcome:
// Finish, once every result is in (nil), or Abort.
func (w *distWorker) awaitEnd() error {
	typ, payload, err := w.coord.Recv()
	switch {
	case err != nil:
		if cerr := w.h.failure(); cerr != nil {
			return cerr // our own failure: the conn close is fallout
		}
		return fmt.Errorf("timewarp: worker %d lost coordinator: %w", w.id, err)
	case typ == nettrans.FrameFinish:
		return nil
	case typ == nettrans.FrameAbort:
		a, err := decodeAbort(payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("timewarp: run aborted: %s", a.Reason)
	default:
		return fmt.Errorf("timewarp: worker %d: unexpected control frame 0x%02x", w.id, typ)
	}
}

// report sends the coordinator a heartbeat — the published cycle and the
// counters of each local cluster, and the unshipped tail of the trace ring
// — and notes the clusters' progress on the worker's liveness probe.
func (w *distWorker) report() error {
	var r distReport
	for _, cl := range w.h.clusters {
		r.Clusters = append(r.Clusters, clusterReport{
			Cluster: cl.id, Cycle: w.h.progress[cl.id].Load(), Stats: cl.stats.Snapshot()})
	}
	var next uint64
	r.Trace, next, r.Lost = w.opts.Obs.EventsSince(w.traceCursor)
	w.h.note()
	if err := w.coord.Send(nettrans.FrameReport, appendReport(nil, r)); err != nil {
		return fmt.Errorf("timewarp: worker %d send report: %w", w.id, err)
	}
	w.traceCursor = next
	return nil
}

// peerFrame is the one handler of everything a mesh connection carries:
// data frames become local deliveries, watermark frames reach every local
// cluster, anything else poisons the link. A data frame for a cluster
// that is not local, or that reads nothing of its source, is misrouted:
// no cluster would ever take it. The payload is the poller's read buffer;
// nothing decoded from it may alias it.
func (w *distWorker) peerFrame(typ byte, payload []byte) error {
	switch typ {
	case nettrans.FrameData:
		dst, f, err := decodeFrame(payload, w.spec.K)
		if err != nil {
			return err
		}
		if !slices.Contains(w.mesh.reads[dst], f.Src) {
			return fmt.Errorf("frame (T %d) of cluster %d for cluster %d, which reads nothing of it here: misrouted", f.T, f.Src, dst)
		}
		w.mesh.framesRecv.Add(1)
		w.mesh.deliver(dst, f)
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
	w.coord.Send(nettrans.FrameAbort, appendAbort(nil, distAbort{
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
	expect := len(w.peers) - 1 - w.id
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
				ph, err := nettrans.DecodePeerHello(payload, len(w.peers))
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
	deliver comm.DeliverFunc
	mark    comm.MarkFunc

	// markTo[c] lists the peer workers that read local cluster c's
	// watermark, and reads[c] the clusters local cluster c reads, its
	// senders (routeMarks); both are set before any traffic, and nil for a
	// cluster of another worker.
	markTo [][]int
	reads  [][]int32

	// pollMu admits one poller at a time; the rest find it taken and go on
	// with what their links already hold. down marks links that ended
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
	return &meshTransport{w: w, down: make([]bool, len(w.peers)), queued: make([]uint64, len(w.peers))}
}

// routeMarks lists, for each cluster h runs, the peer workers that read its
// watermark: those hosting one of its senders, whose holdBack waits for it,
// or one of its receivers, whose awaitSenders does. No other cluster reads
// a watermark, so Mark sends a peer outside the list none. It also notes
// each local cluster's senders, against which peerFrame checks a data
// frame's route.
func (t *meshTransport) routeMarks(h *host) {
	t.markTo = make([][]int, len(t.w.placement))
	t.reads = make([][]int32, len(t.w.placement))
	for _, cl := range h.clusters {
		t.reads[cl.id] = cl.prog.senders
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

// Send routes one link frame: local destinations deliver in-process,
// remote ones are queued as a data frame in the owning worker's mesh
// write buffer, where they wait for the sender's next Mark. Per-link FIFO
// holds because each cluster goroutine emits its frames and then its
// watermark in order onto a single TCP stream per destination worker.
func (t *meshTransport) Send(dst int, f *comm.Frame) {
	owner := int(t.w.placement[dst])
	if owner == t.w.id {
		t.deliver(dst, f)
		return
	}
	// The frame already counts as sent (ship counted it in tw_batches), and
	// its receiver takes it in the cycle it is stamped with: the frame in
	// the buffer needs no count of its own until a flush writes it.
	t.encMu.Lock()
	t.encBuf = appendFrame(t.encBuf[:0], dst, f)
	if t.w.peers[owner].Queue(nettrans.FrameData, t.encBuf) == nil {
		t.queued[owner]++
	}
	t.encMu.Unlock()
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

// Poll drains every mesh socket into the local links and watermarks
// without blocking — the receive half of the data plane (DESIGN §21).
// There is no reader goroutine and no poll tick: the clusters call this
// while they wait for a watermark, which arrives behind the data frames it
// covers, and every such wait polls (awaitSenders' spin, AwaitHeard over a
// polled transport). A link that ended quietly (the peer
// finished, or died — the coordinator's control connection says which) is
// polled no more; one that carried something illegal is reported
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
