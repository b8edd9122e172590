package comm

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fr is a frame of src stamped t, carrying t as its one word.
func fr(src int32, t uint64) *Frame { return &Frame{T: t, Src: src, Words: []uint64{t}} }

// takeAll pops every frame the src→ep link holds, whatever its stamp.
func takeAll(ep *Endpoint, src int) []*Frame {
	var got []*Frame
	for f := ep.Take(src, math.MaxUint64); f != nil; f = ep.Take(src, math.MaxUint64) {
		got = append(got, f)
	}
	return got
}

// inOrder fails the test unless got holds the frames stamped 0, 1, 2, …
func inOrder(t *testing.T, got []*Frame) {
	t.Helper()
	for i, f := range got {
		if f.T != uint64(i) {
			t.Fatalf("frame %d out of order: stamped %d", i, f.T)
		}
	}
}

// TestSendRecvBasic: Take pops a link's front frame once its cycle has
// come, and only then.
func TestSendRecvBasic(t *testing.T) {
	n := NewNetwork(2)
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Send(1, fr(0, 1))
	a.Send(1, fr(0, 2))
	if f := b.Take(0, 0); f != nil {
		t.Fatalf("cycle 0 took the frame stamped %d", f.T)
	}
	if f := b.Take(1, 9); f != nil {
		t.Fatalf("the empty link 1→1 handed out the frame stamped %d", f.T)
	}
	for _, want := range []uint64{1, 2} {
		if f := b.Take(0, 2); f == nil || f.T != want || f.Words[0] != want {
			t.Fatalf("cycle 2 took %+v, want the frame stamped %d", f, want)
		}
	}
	if f := b.Take(0, 2); f != nil {
		t.Errorf("empty link handed out %+v", f)
	}
}

// TestCloseWakesReceiver: a receiver asleep in AwaitHeard for a watermark
// that never comes wakes on Close and reports none — how an aborted Time
// Warp run frees its waiting clusters.
func TestCloseWakesReceiver(t *testing.T) {
	n := NewNetwork(2)
	ep := n.Endpoint(1)
	done := make(chan bool, 1)
	go func() { done <- ep.AwaitHeard(0, 1) }()
	for ep.waiting.Load() == 0 {
		runtime.Gosched()
	}
	ep.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("closed endpoint reported a watermark never marked")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake AwaitHeard")
	}
}

func TestPerLinkFIFO(t *testing.T) {
	n := NewNetwork(2)
	const count = 1000
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	got := takeAll(n.Endpoint(1), 0)
	if len(got) != count {
		t.Fatalf("took %d of %d frames", len(got), count)
	}
	inOrder(t, got)
}

func TestCloseSemantics(t *testing.T) {
	// Close is idempotent; frames already queued can still be taken
	// after Close, and sends after Close enqueue without panicking — an
	// aborted Time Warp run closes endpoints while other clusters may
	// still be shipping.
	n := NewNetwork(2)
	ep := n.Endpoint(1)
	n.Endpoint(0).Send(1, fr(0, 1))
	ep.Close()
	ep.Close() // double close must be safe
	if f := ep.Take(0, 1); f == nil || f.T != 1 {
		t.Fatalf("queued frame lost across Close: took %+v", f)
	}
	if f := ep.Take(0, 9); f != nil {
		t.Fatalf("closed empty link handed out %+v, want nil", f)
	}
	n.Endpoint(0).Send(1, fr(0, 2))
	if f := ep.Take(0, 2); f == nil || f.T != 2 {
		t.Fatalf("send after close not taken: %+v", f)
	}
}

// TestCloseWakesAllBlockedReceivers: Close wakes every receiver asleep in
// AwaitHeard on the endpoint, whichever sender each waits for.
func TestCloseWakesAllBlockedReceivers(t *testing.T) {
	n := NewNetwork(3)
	ep := n.Endpoint(0)
	const waiters = 4
	done := make(chan bool, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- ep.AwaitHeard(1+i%2, 1) }()
	}
	for ep.waiting.Load() < waiters {
		runtime.Gosched()
	}
	ep.Close()
	for i := 0; i < waiters; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Error("waiter reported a watermark never marked")
			}
		case <-time.After(time.Second):
			t.Fatal("Close left a receiver blocked")
		}
	}
}

func TestConcurrentSendersCounted(t *testing.T) {
	n := NewNetwork(3)
	const per = 500
	var wg sync.WaitGroup
	for src := 0; src < 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Endpoint(src).Send((src+1)%3, fr(int32(src), uint64(i)))
			}
		}(src)
	}
	wg.Wait()
	total := 0
	for dst := 0; dst < 3; dst++ {
		got := takeAll(n.Endpoint(dst), (dst+2)%3)
		inOrder(t, got)
		total += len(got)
	}
	if total != 3*per {
		t.Errorf("received %d, want %d", total, 3*per)
	}
}

func TestCloseTransportIdempotent(t *testing.T) {
	// Network.CloseTransport must be callable more than once without
	// panicking or losing frames the first call flushed — abort paths
	// and deferred cleanups can both reach it. Exercised against the
	// chaos transport, whose background pump makes double-stop the
	// dangerous case.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 7, MaxDelay: 50 * time.Microsecond}))
	const sends = 20
	for i := 0; i < sends; i++ {
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	n.CloseTransport()
	n.CloseTransport() // must be a no-op, not a panic
	got := takeAll(n.Endpoint(1), 0)
	if len(got) != sends {
		t.Fatalf("got %d frames after double CloseTransport, want %d", len(got), sends)
	}
	inOrder(t, got)
}

func TestDirectCloseTransportIdempotent(t *testing.T) {
	n := NewNetwork(1)
	n.CloseTransport()
	n.CloseTransport()
}

func TestDrainAfterCloseUnderTransportFlush(t *testing.T) {
	// The documented shutdown order on abort: endpoints close first, the
	// transport flushes into them afterwards. Everything the transport
	// held must still be on the closed endpoints' links — Close wakes
	// receivers, it never discards frames.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 3, MaxDelay: time.Millisecond, StallEvery: 4, StallFor: 5 * time.Millisecond}))
	const sends = 12
	for i := 0; i < sends; i++ {
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	ep := n.Endpoint(1)
	ep.Close()
	ep.Close() // double close of an endpoint with queued + in-transit frames
	n.CloseTransport()
	got := takeAll(ep, 0) // the flush delivered everything
	if len(got) != sends {
		t.Fatalf("took %d frames across close, want %d", len(got), sends)
	}
	inOrder(t, got)
}

// TestTakeAllocatesNothing pins the queue contract: a taken frame leaves
// no reference behind in its link's array, so it can be collected, and a
// steady exchange allocates nothing once the queue has grown to the most
// frames the link held.
func TestTakeAllocatesNothing(t *testing.T) {
	n := NewNetwork(2)
	src, ep := n.Endpoint(0), n.Endpoint(1)
	frames := []*Frame{fr(0, 0), fr(0, 1), fr(0, 2)}
	exchange := func() {
		for _, f := range frames {
			src.Send(1, f)
		}
		for _, want := range frames {
			if f := ep.Take(0, 2); f != want {
				t.Fatalf("took %+v, want %+v", f, want)
			}
		}
	}
	exchange()
	l := &ep.links[0]
	if back := l.q[:cap(l.q)]; back[0] != nil || back[1] != nil || back[2] != nil {
		t.Errorf("an empty link still holds taken frames: %v", back)
	}
	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Errorf("steady exchange allocates %.1f times, want 0", avg)
	}
	if n, c := ep.Queued(0); n != 0 || c > 4 {
		t.Errorf("link holds %d frames in a queue of capacity %d; want none in at most 4", n, c)
	}
}

// TestPendingPolledBesideSenders is the kernel's use under the race
// detector: senders deliver while the one receiver polls every link with
// Take, which most of the time finds it empty. Nothing is lost, and every
// link stays FIFO.
func TestPendingPolledBesideSenders(t *testing.T) {
	const senders, per = 3, 2000
	n := NewNetwork(senders + 1)
	ep := n.Endpoint(senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Endpoint(s).Send(senders, fr(int32(s), uint64(i)))
			}
		}(s)
	}
	next := make([]uint64, senders)
	got := 0
	for deadline := time.Now().Add(20 * time.Second); got < senders*per; {
		took := false
		for s := range next {
			f := ep.Take(s, math.MaxUint64)
			if f == nil {
				continue
			}
			if f.T != next[s] || int(f.Src) != s {
				t.Fatalf("link %d delivered %d of %d, want %d", s, f.T, f.Src, next[s])
			}
			next[s]++
			got++
			took = true
		}
		if !took {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames arrived", got, senders*per)
			}
			runtime.Gosched()
		}
	}
	wg.Wait()
	for s := range senders {
		if q, _ := ep.Queued(s); q != 0 {
			t.Errorf("after the last frame: link %d still holds %d", s, q)
		}
	}
}

// TestAwaitHeardWakesOnMarkAndClose: over direct delivery a watermark is
// heard the moment it is marked; a receiver asleep in AwaitHeard wakes for
// the watermark it waits for and for no lower one, and Close wakes it
// without one.
func TestAwaitHeardWakesOnMarkAndClose(t *testing.T) {
	n := NewNetwork(3)
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Mark(2)
	if b.Heard(0) != 2 || n.Endpoint(2).Heard(0) != 2 || a.Heard(0) != 0 {
		t.Fatalf("heard %d, %d and by itself %d; want 2, 2 and 0", b.Heard(0), n.Endpoint(2).Heard(0), a.Heard(0))
	}
	sleep := func(through uint64) chan bool {
		done := make(chan bool, 1)
		go func() { done <- b.AwaitHeard(0, through) }()
		for b.waiting.Load() == 0 {
			runtime.Gosched()
		}
		return done
	}
	done := sleep(4)
	a.Mark(3)
	select {
	case <-done:
		t.Fatal("AwaitHeard(4) returned on watermark 3")
	case <-time.After(10 * time.Millisecond):
	}
	a.Mark(4)
	if ok := <-done; !ok {
		t.Fatal("AwaitHeard(4) reported no watermark after watermark 4")
	}
	done = sleep(9)
	b.Close()
	if ok := <-done; ok {
		t.Fatal("AwaitHeard(9) reported a watermark after Close")
	}
}

// heldMarks is a polled transport that keeps every watermark until it is
// polled, like a socket nobody reads in the background.
type heldMarks struct {
	k    int
	mark MarkFunc
	mu   sync.Mutex
	held []uint64 // src 0's watermarks
}

func (h *heldMarks) Send(dst int, f *Frame) {}
func (h *heldMarks) Close()                 {}

func (h *heldMarks) Mark(src int, through uint64) {
	h.mu.Lock()
	h.held = append(h.held, through)
	h.mu.Unlock()
}

func (h *heldMarks) Poll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range h.held {
		for dst := 1; dst < h.k; dst++ {
			h.mark(0, dst, v)
		}
	}
	h.held = h.held[:0]
}

// TestAwaitHeardPollsAPolledTransport: over a polled transport only a poll
// delivers a watermark, so a receiver waiting for one polls itself rather
// than sleeping until somebody else does; and Close still ends the wait.
func TestAwaitHeardPollsAPolledTransport(t *testing.T) {
	n := NewNetworkTransport(2, func(k int, _ DeliverFunc, mark MarkFunc) Transport {
		return &heldMarks{k: k, mark: mark}
	})
	n.Endpoint(0).Mark(5)
	if got := n.Endpoint(1).Heard(0); got != 0 {
		t.Fatalf("heard %d before any poll, want 0", got)
	}
	if !n.Endpoint(1).AwaitHeard(0, 5) {
		t.Fatal("AwaitHeard(5) reported no watermark")
	}
	done := make(chan bool, 1)
	go func() { done <- n.Endpoint(1).AwaitHeard(0, 9) }()
	time.Sleep(5 * time.Millisecond)
	n.Endpoint(1).Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("AwaitHeard(9) reported a watermark after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end a polling AwaitHeard")
	}
}
