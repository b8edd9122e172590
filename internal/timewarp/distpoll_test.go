package timewarp

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
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

// meshFixture is worker 0 of a two-worker, two-cluster run — cluster 0
// local, cluster 1 on worker 1 — with no cluster goroutines, no gossip loop
// and no coordinator: the test holds worker 1's end of the mesh socket and
// the coordinator's end of the control connection.
type meshFixture struct {
	w     *distWorker
	ep    *comm.Endpoint // cluster 0's mailbox
	peer  *nettrans.Conn // worker 1's end of the mesh link
	coord *nettrans.Conn // the coordinator's end of the control link
}

func newMeshFixture(t *testing.T) *meshFixture {
	t.Helper()
	meshLocal, meshPeer := tcpPair(t)
	ctlLocal, ctlCoord := tcpPair(t)
	w := &distWorker{
		id:        0,
		numW:      2,
		spec:      &DistSpec{K: 2},
		placement: []int32{0, 1},
		coord:     ctlLocal,
		peers:     []*nettrans.Conn{nil, meshLocal},
	}
	w.mesh = newMeshTransport(w)
	w.h = &host{
		net:      comm.NewNetworkTransport(2, w.mesh.factory()),
		progress: make([]atomic.Uint64, 2),
	}
	w.mesh.net = w.h.net
	return &meshFixture{w: w, ep: w.h.net.Endpoint(0), peer: meshPeer, coord: ctlCoord}
}

// writeEvent writes one data frame 1→0 on worker 1's end of the link.
func (f *meshFixture) writeEvent(seq uint64) error {
	buf := nettrans.AppendDataFrame(nil, 1, 0, 0, nil)
	buf, err := WireCodec().Append(buf, event{T: seq, Src: 1, Seq: seq})
	if err != nil {
		return err
	}
	return f.peer.Send(nettrans.FrameData, buf)
}

func (f *meshFixture) sendEvent(t *testing.T, seq uint64) {
	t.Helper()
	if err := f.writeEvent(seq); err != nil {
		t.Fatal(err)
	}
}

// TestMeshFrameArrivesOnFirstPoll is the mechanism the polled data plane
// exists for (DESIGN §21). One P, and a goroutine that keeps it busy the
// way a cluster does — it never blocks, it only yields. A reader goroutine
// parked in the netpoller would wait for the scheduler to find both run
// queues empty, which here is never; the frame would sit in the socket.
// With the receiver draining the socket itself, the frame is in the mailbox
// after the first TryRecvAll that follows the write: no sleep, no reader.
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
		f.sendEvent(t, seq)
		msgs := f.ep.TryRecvAll()
		if len(msgs) != 1 {
			t.Fatalf("frame %d: %d messages in the mailbox after the first TryRecvAll, want 1", seq, len(msgs))
		}
		if e, ok := msgs[0].(event); !ok || e.Seq != seq {
			t.Fatalf("frame %d: delivered %#v", seq, msgs[0])
		}
	}
	if got := f.w.h.net.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after every frame was drained", got)
	}
	if _, recv := f.w.mesh.takeEraDeltas(); len(recv) != 1 || recv[0].Count != 200 {
		t.Errorf("era tally of received frames: %+v, want 200 in era 0", recv)
	}
}

// hookedConn runs written after each Write has returned from the socket and
// before the writer hears of it: the place where a sender can lose the
// processor with its frame already on the wire.
type hookedConn struct {
	net.Conn
	written func()
}

func (c hookedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written()
	return n, err
}

// TestMeshSendTalliesBeforeTheWrite: a data frame is in the era tally of
// sent frames before its bytes reach the socket. The peer can read, tally,
// deliver and absorb a frame the moment the write returns; were the send
// tallied only after that, two Mattern rounds falling in the gap would see
// one receive and no send of it on an otherwise quiet cut — frozen and not
// drained, the coordinator's "wire frame lost" abort on a healthy run
// (ROADMAP item 10). A frame whose send is untallied must be one nobody can
// have received.
func TestMeshSendTalliesBeforeTheWrite(t *testing.T) {
	f := newMeshFixture(t)
	local, remote := rawPair(t)
	peer := nettrans.NewConn(remote)
	var sent []eraCount
	var recvErr error
	written := func() {
		_, _, recvErr = peer.Recv() // the frame has arrived at worker 1
		sent, _ = f.w.mesh.takeEraDeltas()
	}
	f.w.peers[1] = nettrans.NewConn(hookedConn{local, func() { written() }})
	f.ep.Send(1, event{T: 1, Src: 0, Seq: 1})
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if len(sent) != 1 || sent[0] != (eraCount{Era: 0, Count: 1}) {
		t.Fatalf("era tally of sent frames with the frame at the peer: %+v, want 1 in era 0", sent)
	}
	if sent, _ := f.w.mesh.takeEraDeltas(); len(sent) != 0 {
		t.Errorf("the frame was tallied again after the write: %+v", sent)
	}
	if got := f.w.h.net.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after the frame left", got)
	}

	// A frame that could not be written is not counted sent: the tally is
	// taken back.
	local.Close()
	written = func() {}
	f.ep.Send(1, event{T: 2, Src: 0, Seq: 2})
	if sent, _ := f.w.mesh.takeEraDeltas(); len(sent) != 0 && sent[0].Count != 0 {
		t.Errorf("era tally of sent frames after a failed write: %+v, want none", sent)
	}
}

// TestMeshPollFromManyGoroutines drives Poll the way a run does — every
// cluster through TryRecvAll, the gossip tick beside them — while the peer
// streams frames and gossip: each frame must be delivered exactly once, in
// link order. Run under -race this is the check that one poller at a time
// really is one.
func TestMeshPollFromManyGoroutines(t *testing.T) {
	f := newMeshFixture(t)
	const frames = 2000
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			if err := f.writeEvent(seq); err != nil {
				t.Error(err)
				return
			}
			if seq%16 == 0 {
				f.peer.Send(nettrans.FrameProgress,
					appendProgressList(nil, []clusterProgress{{Cluster: 1, Cycle: seq}}))
			}
		}
	}()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { // the gossip tick and the other clusters
			defer wg.Done()
			for !stop.Load() {
				f.w.mesh.Poll()
				runtime.Gosched()
			}
		}()
	}
	next := uint64(1)
	const lastGossip = frames - frames%16 // follows the last data frame on the link
	for deadline := time.Now().Add(20 * time.Second); next <= frames || f.w.h.progress[1].Load() != lastGossip; {
		for _, m := range f.ep.TryRecvAll() {
			if e := m.(event); e.Seq != next {
				t.Fatalf("delivered seq %d, want %d", e.Seq, next)
			}
			next++
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames arrived, gossiped progress %d of %d",
				next-1, frames, f.w.h.progress[1].Load(), lastGossip)
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
		f.sendEvent(t, 1)
		f.peer.Close()
		f.pollUntilDown(t, io.EOF)
		if msgs := f.ep.TryRecvAll(); len(msgs) != 1 {
			t.Fatalf("%d messages delivered ahead of the EOF, want 1", len(msgs))
		}
		f.requireQuietDeadLink(t)
	})
	t.Run("ECONNRESET", func(t *testing.T) {
		f := newMeshFixture(t)
		// A peer that dies with our gossip unread in its receive buffer is
		// answered for by its kernel with a reset, not a FIN.
		f.w.peers[1].Send(nettrans.FrameProgress, appendProgressList(nil, nil))
		time.Sleep(10 * time.Millisecond)
		f.peer.Close()
		f.pollUntilDown(t, syscall.ECONNRESET)
		f.requireQuietDeadLink(t)
	})
}

// requireQuietDeadLink: nothing was reported to the coordinator, and a
// send into the dead link neither panics nor hangs nor stays in flight.
func (f *meshFixture) requireQuietDeadLink(t *testing.T) {
	t.Helper()
	if typ, payload, ok := f.coordFrame(50 * time.Millisecond); ok {
		t.Fatalf("a dead peer was reported to the coordinator as frame 0x%02x %q", typ, payload)
	}
	f.ep.Send(1, event{T: 9, Src: 0, Seq: 9})
	f.w.mesh.Poll()
	if got := f.w.h.net.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d, want 0: a frame for a dead peer has left this process", got)
	}
}

// TestMeshPollReportsGarbage: anything illegal on a mesh link — a frame
// type the data plane does not carry, a route outside the network, an
// undecodable event or progress list — poisons the link and is reported to
// the coordinator with the peer named, once.
func TestMeshPollReportsGarbage(t *testing.T) {
	badRoute := nettrans.AppendDataFrame(nil, 1, 7, 0, []byte{wireKindEvent})
	badEvent := nettrans.AppendDataFrame(nil, 1, 0, 0, []byte{0x7F, 1, 2, 3})
	for _, tc := range []struct {
		name  string
		write func(f *meshFixture)
		want  string
	}{
		{"frame type", func(f *meshFixture) { f.peer.Send(nettrans.FrameCut, []byte{1}) }, "unexpected frame type 0x08"},
		{"route", func(f *meshFixture) { f.peer.Send(nettrans.FrameData, badRoute) }, "outside 2-cluster network"},
		{"event", func(f *meshFixture) { f.peer.Send(nettrans.FrameData, badEvent) }, "unknown wire message kind"},
		{"progress", func(f *meshFixture) { f.peer.Send(nettrans.FrameProgress, []byte{0, 0, 0, 9}) }, "progress list of 9 entries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newMeshFixture(t)
			f.sendEvent(t, 1)
			tc.write(f)
			f.sendEvent(t, 2) // behind the garbage: must never be delivered
			f.pollUntilDown(t, nil)
			typ, payload, ok := f.coordFrame(5 * time.Second)
			if !ok || typ != nettrans.FrameError {
				t.Fatalf("coordinator got frame 0x%02x (ok=%v), want FrameError", typ, ok)
			}
			a, err := decodeAbort(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(a.Reason, "bad frame from peer 1") || !strings.Contains(a.Reason, tc.want) {
				t.Errorf("diagnosis %q does not name peer 1 and %q", a.Reason, tc.want)
			}
			f.w.mesh.Poll()
			msgs := f.ep.TryRecvAll()
			if len(msgs) != 1 || msgs[0].(event).Seq != 1 {
				t.Errorf("delivered %v: want exactly the frame ahead of the garbage", msgs)
			}
			if _, _, ok := f.coordFrame(50 * time.Millisecond); ok {
				t.Error("the poisoned link was reported twice")
			}
		})
	}
}
