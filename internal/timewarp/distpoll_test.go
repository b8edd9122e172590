package timewarp

import (
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
	"repro/internal/sim"
)

// rawPair returns both ends of one loopback TCP connection.
func rawPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err = ln.Accept()
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// tcpPair is rawPair, framed.
func tcpPair(t *testing.T) (a, b *nettrans.Conn) {
	t.Helper()
	ra, rb := rawPair(t)
	return nettrans.NewConn(ra), nettrans.NewConn(rb)
}

// meshFixture is worker 0 of a distributed run — by default two workers
// and two clusters, cluster 0 local and cluster 1 on worker 1 — with no
// cluster goroutines and no coordinator: the test holds the
// peer workers' ends of the mesh sockets and the coordinator's end of the
// control connection. Every local cluster's watermark goes to every peer,
// and reads every other cluster.
type meshFixture struct {
	w     *distWorker
	ep    *comm.Endpoint   // cluster 0's endpoint
	peer  *nettrans.Conn   // worker 1's end of the mesh link
	peers []*nettrans.Conn // worker p's end of the mesh link at p, nil at 0
	coord *nettrans.Conn   // the coordinator's end of the control link
}

func newMeshFixture(t *testing.T) *meshFixture {
	t.Helper()
	return newMeshFixtureOf(t, []int32{0, 1})
}

// newMeshFixtureOf places cluster c on worker placement[c]; cluster 0 must
// be on worker 0, the worker under test.
func newMeshFixtureOf(t *testing.T, placement []int32) *meshFixture {
	t.Helper()
	k, numW := len(placement), int(slices.Max(placement))+1
	ctlLocal, ctlCoord := tcpPair(t)
	w := &distWorker{
		id:        0,
		spec:      &DistSpec{K: k},
		placement: placement,
		coord:     ctlLocal,
		peers:     make([]*nettrans.Conn, numW),
	}
	f := &meshFixture{w: w, peers: make([]*nettrans.Conn, numW), coord: ctlCoord}
	for p := 1; p < numW; p++ {
		w.peers[p], f.peers[p] = tcpPair(t)
	}
	f.peer = f.peers[1]
	w.mesh = newMeshTransport(w)
	w.h = &host{
		net:      comm.NewNetworkTransport(k, w.mesh.factory()),
		progress: make([]atomic.Uint64, k),
	}
	w.mesh.markTo = make([][]int, k)
	w.mesh.reads = make([][]int32, k)
	for c, owner := range placement {
		if owner != 0 {
			continue
		}
		for p := 1; p < numW; p++ {
			w.mesh.markTo[c] = append(w.mesh.markTo[c], p)
		}
		for s := range k {
			if s != c {
				w.mesh.reads[c] = append(w.mesh.reads[c], int32(s))
			}
		}
	}
	f.ep = w.h.net.Endpoint(0)
	return f
}

// linkFrame is the payload of a data frame 1→0 carrying cluster 1's frame
// for cycle seq.
func linkFrame(seq uint64) []byte {
	return appendFrame(nil, 0, &comm.Frame{T: seq, Src: 1, Words: []uint64{seq}})
}

// writeLinkFrame writes one data frame 1→0 on worker 1's end of the link.
func (f *meshFixture) writeLinkFrame(seq uint64) error {
	return f.peer.Send(nettrans.FrameData, linkFrame(seq))
}

// takeAll pops every frame the src→ep link holds, whatever its stamp.
func takeAll(ep *comm.Endpoint, src int) []*comm.Frame {
	var got []*comm.Frame
	for f := ep.Take(src, math.MaxUint64); f != nil; f = ep.Take(src, math.MaxUint64) {
		got = append(got, f)
	}
	return got
}

func (f *meshFixture) sendLinkFrame(t *testing.T, seq uint64) {
	t.Helper()
	if err := f.writeLinkFrame(seq); err != nil {
		t.Fatal(err)
	}
}

// TestMeshFrameArrivesOnFirstPoll is the mechanism the polled data plane
// exists for (DESIGN §21). One P, and a goroutine that keeps it busy the
// way a cluster does — it never blocks, it only yields. A reader goroutine
// parked in the netpoller would wait for the scheduler to find both run
// queues empty, which here is never; the frames would sit in the socket.
// The peer writes a cycle the way a sender does: a data frame, then the
// watermark behind it, in one write. The first Endpoint.Poll after the
// write delivers both, the data frame first — the watermark is heard with
// the frame already on its link — and Take, which polls nothing, then
// pops the frame: no sleep, no reader.
func TestMeshFrameArrivesOnFirstPoll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newMeshFixture(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)

	for seq := uint64(1); seq <= 200; seq++ {
		if err := f.peer.Queue(nettrans.FrameData, linkFrame(seq)); err != nil {
			t.Fatal(err)
		}
		if err := f.peer.Send(nettrans.FrameProgress, appendMark(nil, 1, seq)); err != nil {
			t.Fatal(err)
		}
		if lf := f.ep.Take(1, seq); lf != nil {
			t.Fatalf("frame %d: Take polled the socket: took the frame stamped %d before any poll", seq, lf.T)
		}
		f.ep.Poll()
		if got := f.ep.Heard(1); got != seq {
			t.Fatalf("frame %d: watermark %d heard after the first poll, want %d", seq, got, seq)
		}
		if got := takeAll(f.ep, 1); len(got) != 1 || got[0].T != seq || got[0].Words[0] != seq {
			t.Fatalf("frame %d: the link held %d frames with its watermark heard, want it alone", seq, len(got))
		}
	}
	if got := f.w.mesh.framesRecv.Load(); got != 200 {
		t.Errorf("%d frames counted read, want 200", got)
	}
}

// hookedConn runs written after each Write has returned from the socket and
// before the writer hears of it: the place where a sender can lose the
// processor with its frames already on the wire.
type hookedConn struct {
	net.Conn
	written func()
}

func (c hookedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written()
	return n, err
}

// hookPeer replaces worker 0's end of the link to worker p by a fresh
// socket whose every Write runs written, and returns worker p's end of it.
func (f *meshFixture) hookPeer(t *testing.T, p int, written func()) (local net.Conn, peer *nettrans.Conn) {
	t.Helper()
	local, remote := rawPair(t)
	f.w.peers[p] = nettrans.NewConn(hookedConn{local, written})
	return local, nettrans.NewConn(remote)
}

// TestMeshSendTalliesBeforeTheWrite: a data frame counts as sent — in its
// cluster's tw_batches, which mergeResults holds the taken frames to —
// before its bytes reach the socket. A cycle queues the frame and the
// watermark flushes it; the peer can read, deliver and take the frame the
// moment that one write returns. The mesh counts the frame written only
// once the write succeeded: a frame that could not be written is no frame
// on the wire.
func TestMeshSendTalliesBeforeTheWrite(t *testing.T) {
	nl, parts := togglePair(t)
	f := newMeshFixture(t)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 4,
		Transport: f.w.mesh.factory(),
	}, "dist", func(c int) bool { return c == 0 })
	if err != nil {
		t.Fatal(err)
	}
	f.w.h = h
	cl := h.clusters[0]
	var batchesAtWrite uint64
	var writes int
	var recvErr error
	var peer *nettrans.Conn
	written := func() {
		writes++
		_, _, recvErr = peer.Recv() // the data frame has arrived at worker 1
		batchesAtWrite = cl.stats.batches.Load()
	}
	local, peer := f.hookPeer(t, 1, func() { written() })
	if err := cl.processCycle(0); err != nil {
		t.Fatal(err)
	}
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if writes != 1 || batchesAtWrite != 1 {
		t.Fatalf("%d writes, %d frames counted sent with the frame at the peer; want 1 and 1", writes, batchesAtWrite)
	}
	if typ, _, err := peer.Recv(); err != nil || typ != nettrans.FrameProgress {
		t.Fatalf("frame 0x%02x (%v) behind the data frame, want the watermark", typ, err)
	}
	if got := cl.stats.batches.Load(); got != 1 {
		t.Errorf("the frame was counted again after the write: %d sent", got)
	}
	if got := f.w.mesh.framesSent.Load(); got != 1 {
		t.Errorf("%d frames counted written, want 1", got)
	}

	local.Close()
	written = func() {}
	if err := cl.processCycle(1); err != nil {
		t.Fatal(err)
	}
	if got := cl.stats.batches.Load(); got != 2 {
		t.Errorf("%d frames counted sent by the cluster after its second cycle, want 2", got)
	}
	if got := f.w.mesh.framesSent.Load(); got != 1 {
		t.Errorf("%d frames counted written after a failed write, want 1", got)
	}
}

// TestMeshCycleIsOneWrite: a cycle costs one write(2) per peer worker. One
// cluster sends a batch to each of two clusters on the same peer, then
// marks its watermark; the link sees exactly one Write, and the peer reads
// both data frames, in send order, before the watermark.
func TestMeshCycleIsOneWrite(t *testing.T) {
	f := newMeshFixtureOf(t, []int32{0, 1, 1})
	writes := 0
	_, peer := f.hookPeer(t, 1, func() { writes++ })
	f.ep.Send(1, &comm.Frame{T: 1, Src: 0, Words: []uint64{3}})
	f.ep.Send(2, &comm.Frame{T: 1, Src: 0, Words: []uint64{1}})
	f.ep.Mark(1)
	if writes != 1 {
		t.Fatalf("%d writes for one cycle to one peer, want 1", writes)
	}
	for _, dst := range []int{1, 2} {
		typ, payload, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if typ != nettrans.FrameData {
			t.Fatalf("frame type 0x%02x where the data frame for cluster %d belongs", typ, dst)
		}
		got, df, err := decodeFrame(payload, 3)
		if err != nil {
			t.Fatal(err)
		}
		if df.Src != 0 || got != dst {
			t.Fatalf("data frame %d→%d, want 0→%d", df.Src, got, dst)
		}
	}
	typ, payload, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if src, through, err := decodeMark(payload, 3); typ != nettrans.FrameProgress || err != nil || src != 0 || through != 1 {
		t.Fatalf("frame 0x%02x (%d, %d, %v) behind the data, want cluster 0's watermark 1", typ, src, through, err)
	}
	if got := f.w.mesh.framesSent.Load(); got != 2 {
		t.Errorf("%d frames counted written, want 2", got)
	}
}

// TestMeshMarksOnlyWhereRead: three workers, and the one-way pair's cluster
// 0 on worker 0 sends only to cluster 1 on worker 1; cluster 2, on worker
// 2, is empty. Only cluster 1 reads cluster 0's watermark, so worker 2 is
// sent none: a cycle of cluster 0 puts its frame and its watermark on the
// link to worker 1, and nothing on the link to worker 2 — the first frame
// worker 2 reads is one the test sends it afterwards.
func TestMeshMarksOnlyWhereRead(t *testing.T) {
	nl, parts := togglePair(t)
	f := newMeshFixtureOf(t, []int32{0, 1, 2})
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 3,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 4,
		Transport: f.w.mesh.factory(),
	}, "dist", func(c int) bool { return c == 0 })
	if err != nil {
		t.Fatal(err)
	}
	f.w.h = h
	f.w.mesh.routeMarks(h)
	if got := f.w.mesh.markTo[0]; !slices.Equal(got, []int{1}) {
		t.Fatalf("cluster 0's watermark goes to workers %v, want [1]", got)
	}

	if err := h.clusters[0].processCycle(0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{nettrans.FrameData, nettrans.FrameProgress} {
		if typ, _, err := f.peers[1].Recv(); err != nil || typ != want {
			t.Fatalf("worker 1 read frame 0x%02x (%v), want 0x%02x", typ, err, want)
		}
	}
	if err := f.w.peers[2].Send(nettrans.FrameProgress, appendMark(nil, 0, 99)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := f.peers[2].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, through, _ := decodeMark(payload, 3); typ != nettrans.FrameProgress || through != 99 {
		t.Fatalf("worker 2 read frame 0x%02x through %d first: cluster 0's watermark reached a worker that reads none", typ, through)
	}
}

// TestMeshPollFromManyGoroutines drives Poll the way a run does — one
// cluster takes its link's frames while the others poll as they wait —
// while the peer
// streams frames and watermarks: each frame must be delivered exactly once,
// in link order, and a watermark never ahead of the frames sent before it.
// Run under -race this is the check that one poller at a time really is
// one.
func TestMeshPollFromManyGoroutines(t *testing.T) {
	f := newMeshFixture(t)
	const frames = 2000
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			if err := f.writeLinkFrame(seq); err != nil {
				t.Error(err)
				return
			}
			if seq%16 == 0 {
				f.peer.Send(nettrans.FrameProgress, appendMark(nil, 1, seq))
			}
		}
	}()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { // the other clusters, waiting
			defer wg.Done()
			for !stop.Load() {
				f.w.mesh.Poll()
				runtime.Gosched()
			}
		}()
	}
	next := uint64(1)
	const lastMark = frames - frames%16 // follows the last data frame on the link
	for deadline := time.Now().Add(20 * time.Second); next <= frames || f.ep.Heard(1) != lastMark; {
		heard := f.ep.Heard(1)
		for _, lf := range takeAll(f.ep, 1) {
			if lf.T != next {
				t.Fatalf("delivered the frame for cycle %d, want %d", lf.T, next)
			}
			next++
		}
		if next <= heard {
			t.Fatalf("watermark %d heard with only %d frames delivered: it overtook the data", heard, next-1)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived, watermark %d of %d",
				next-1, frames, f.ep.Heard(1), lastMark)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
}

// coordFrame reads the next control frame the worker sent, or reports that
// none came within the wait.
func (f *meshFixture) coordFrame(wait time.Duration) (typ byte, payload []byte, ok bool) {
	type frame struct {
		typ     byte
		payload []byte
		err     error
	}
	ch := make(chan frame, 1)
	go func() {
		typ, payload, err := f.coord.Recv()
		ch <- frame{typ, payload, err}
	}()
	select {
	case fr := <-ch:
		return fr.typ, fr.payload, fr.err == nil
	case <-time.After(wait):
		return 0, nil, false
	}
}

// pollUntilDown polls until the link to worker 1 is marked down, and
// checks what ended it (nil = anything).
func (f *meshFixture) pollUntilDown(t *testing.T, want error) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		f.w.mesh.Poll()
		f.w.mesh.pollMu.Lock()
		down := f.w.mesh.down[1]
		f.w.mesh.pollMu.Unlock()
		if down {
			// The connection's error is sticky: asking again returns it.
			if err := f.w.peers[1].TryRecv(nil); want != nil && !errors.Is(err, want) {
				t.Fatalf("link ended with %v, want %v", err, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Poll never noticed the end of the link")
		}
		runtime.Gosched()
	}
}

// TestMeshPollSeesPeerDeathFirst: when a peer finishes or is killed, the
// first to notice may now be a cluster's Poll rather than a reader
// goroutine. It must deliver what arrived before the end, accuse nobody
// (the coordinator's control connection owns that diagnosis — see
// TestDistributedWorkerCrashAborts), stop polling the link, and leave
// sends to the dead peer harmless.
func TestMeshPollSeesPeerDeathFirst(t *testing.T) {
	t.Run("EOF", func(t *testing.T) {
		f := newMeshFixture(t)
		f.sendLinkFrame(t, 1)
		f.peer.Close()
		f.pollUntilDown(t, io.EOF)
		if got := takeAll(f.ep, 1); len(got) != 1 {
			t.Fatalf("%d frames delivered ahead of the EOF, want 1", len(got))
		}
		f.requireQuietDeadLink(t)
	})
	t.Run("ECONNRESET", func(t *testing.T) {
		f := newMeshFixture(t)
		// A peer that dies with our watermark unread in its receive buffer
		// is answered for by its kernel with a reset, not a FIN.
		f.w.peers[1].Send(nettrans.FrameProgress, appendMark(nil, 0, 1))
		time.Sleep(10 * time.Millisecond)
		f.peer.Close()
		f.pollUntilDown(t, syscall.ECONNRESET)
		f.requireQuietDeadLink(t)
	})
}

// requireQuietDeadLink: nothing was reported to the coordinator, and a
// send and a watermark into the dead link neither panic nor hang.
func (f *meshFixture) requireQuietDeadLink(t *testing.T) {
	t.Helper()
	if typ, payload, ok := f.coordFrame(50 * time.Millisecond); ok {
		t.Fatalf("a dead peer was reported to the coordinator as frame 0x%02x %q", typ, payload)
	}
	f.ep.Send(1, &comm.Frame{T: 9, Src: 0})
	f.ep.Mark(9)
	f.w.mesh.Poll()
}

// TestMeshPollReportsGarbage: anything illegal on a mesh link — a frame
// type the data plane does not carry, a route outside the network, an
// undecodable frame or watermark, a frame for a cluster that reads nothing
// of its source — poisons the link and is reported to the coordinator
// with the peer named, once.
func TestMeshPollReportsGarbage(t *testing.T) {
	badRoute := appendFrame(nil, 7, &comm.Frame{T: 1, Src: 1})
	badFrame := make([]byte, wireFrameHeader+1)
	badSource := appendFrame(nil, 0, &comm.Frame{T: 1, Src: 0})
	for _, tc := range []struct {
		name  string
		write func(f *meshFixture)
		want  string
	}{
		{"frame type", func(f *meshFixture) { f.peer.Send(nettrans.FrameReport, []byte{1}) }, "unexpected frame type 0x09"},
		{"route", func(f *meshFixture) { f.peer.Send(nettrans.FrameData, badRoute) }, "outside 2-cluster network"},
		{"event", func(f *meshFixture) { f.peer.Send(nettrans.FrameData, badFrame) }, "data frame of 17 bytes"},
		{"source", func(f *meshFixture) { f.peer.Send(nettrans.FrameData, badSource) }, "frame (T 1) of cluster 0 for cluster 0, which reads nothing of it here: misrouted"},
		{"progress", func(f *meshFixture) { f.peer.Send(nettrans.FrameProgress, []byte{0, 0, 0, 9}) }, "malformed watermark"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newMeshFixture(t)
			f.sendLinkFrame(t, 1)
			tc.write(f)
			f.sendLinkFrame(t, 2) // behind the garbage: must never be delivered
			f.pollUntilDown(t, nil)
			typ, payload, ok := f.coordFrame(5 * time.Second)
			if !ok || typ != nettrans.FrameAbort {
				t.Fatalf("coordinator got frame 0x%02x (ok=%v), want FrameAbort", typ, ok)
			}
			a, err := decodeAbort(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(a.Reason, "bad frame from peer 1") || !strings.Contains(a.Reason, tc.want) {
				t.Errorf("diagnosis %q does not name peer 1 and %q", a.Reason, tc.want)
			}
			f.w.mesh.Poll()
			if got := takeAll(f.ep, 1); len(got) != 1 || got[0].T != 1 {
				t.Errorf("delivered %d frames: want exactly the frame ahead of the garbage", len(got))
			}
			if _, _, ok := f.coordFrame(50 * time.Millisecond); ok {
				t.Error("the poisoned link was reported twice")
			}
		})
	}
}
