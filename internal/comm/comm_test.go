package comm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	n := NewNetwork(2)
	a, b := n.Endpoint(0), n.Endpoint(1)
	a.Send(1, "hello")
	a.Send(1, "world")
	if got := n.InFlight(); got != 2 {
		t.Errorf("in flight: %d, want 2", got)
	}
	msgs := b.TryRecvAll()
	if len(msgs) != 2 || msgs[0] != "hello" || msgs[1] != "world" {
		t.Errorf("messages: %v", msgs)
	}
	if got := n.InFlight(); got != 0 {
		t.Errorf("in flight after recv: %d", got)
	}
	if n.TotalSent() != 2 {
		t.Errorf("total sent: %d", n.TotalSent())
	}
	if more := b.TryRecvAll(); more != nil {
		t.Errorf("empty mailbox returned %v", more)
	}
}

func TestRecvWaitBlocksUntilSend(t *testing.T) {
	n := NewNetwork(2)
	done := make(chan []Message, 1)
	go func() { done <- n.Endpoint(1).RecvWait() }()
	select {
	case <-done:
		t.Fatal("RecvWait returned before any send")
	case <-time.After(10 * time.Millisecond):
	}
	n.Endpoint(0).Send(1, 42)
	select {
	case msgs := <-done:
		if len(msgs) != 1 || msgs[0] != 42 {
			t.Errorf("messages: %v", msgs)
		}
	case <-time.After(time.Second):
		t.Fatal("RecvWait did not wake on send")
	}
}

func TestCloseWakesReceiver(t *testing.T) {
	n := NewNetwork(1)
	done := make(chan []Message, 1)
	go func() { done <- n.Endpoint(0).RecvWait() }()
	time.Sleep(5 * time.Millisecond)
	n.Endpoint(0).Close()
	select {
	case msgs := <-done:
		if msgs != nil {
			t.Errorf("closed endpoint returned %v, want nil", msgs)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not wake RecvWait")
	}
}

func TestPerLinkFIFO(t *testing.T) {
	n := NewNetwork(2)
	const count = 1000
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, i)
	}
	var got []Message
	for len(got) < count {
		got = append(got, n.Endpoint(1).TryRecvAll()...)
	}
	for i, m := range got {
		if m != i {
			t.Fatalf("message %d out of order: %v", i, m)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	// Close is idempotent; messages already queued are still receivable
	// after Close (drain-then-nil), and sends after Close enqueue without
	// panicking — the Time Warp watcher closes endpoints while laggard
	// clusters may still be flushing.
	n := NewNetwork(2)
	ep := n.Endpoint(1)
	n.Endpoint(0).Send(1, "before")
	ep.Close()
	ep.Close() // double close must be safe
	if msgs := ep.RecvWait(); len(msgs) != 1 || msgs[0] != "before" {
		t.Fatalf("queued message lost across Close: %v", msgs)
	}
	if msgs := ep.RecvWait(); msgs != nil {
		t.Fatalf("closed empty endpoint returned %v, want nil", msgs)
	}
	n.Endpoint(0).Send(1, "after")
	if msgs := ep.RecvWait(); len(msgs) != 1 || msgs[0] != "after" {
		t.Fatalf("send after close not receivable: %v", msgs)
	}
}

func TestCloseWakesAllBlockedReceivers(t *testing.T) {
	n := NewNetwork(1)
	const waiters = 4
	done := make(chan []Message, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- n.Endpoint(0).RecvWait() }()
	}
	time.Sleep(5 * time.Millisecond)
	n.Endpoint(0).Close()
	for i := 0; i < waiters; i++ {
		select {
		case msgs := <-done:
			if msgs != nil {
				t.Errorf("waiter returned %v, want nil", msgs)
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
				n.Endpoint(src).Send((src+1)%3, i)
			}
		}(src)
	}
	wg.Wait()
	if n.TotalSent() != 3*per {
		t.Errorf("total sent %d, want %d", n.TotalSent(), 3*per)
	}
	total := 0
	for dst := 0; dst < 3; dst++ {
		total += len(n.Endpoint(dst).TryRecvAll())
	}
	if total != 3*per {
		t.Errorf("received %d, want %d", total, 3*per)
	}
	if n.InFlight() != 0 {
		t.Errorf("in flight %d after full drain", n.InFlight())
	}
}

func TestCloseTransportIdempotent(t *testing.T) {
	// Network.CloseTransport must be callable more than once without
	// panicking or losing messages the first call flushed — abort paths
	// and deferred cleanups can both reach it. Exercised against the
	// chaos transport, whose background pump makes double-stop the
	// dangerous case.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 7, MaxDelay: 50 * time.Microsecond}))
	const sends = 20
	for i := 0; i < sends; i++ {
		n.Endpoint(0).Send(1, i)
	}
	n.CloseTransport()
	n.CloseTransport() // must be a no-op, not a panic
	msgs := n.Endpoint(1).TryRecvAll()
	if len(msgs) != sends {
		t.Fatalf("got %d messages after double CloseTransport, want %d", len(msgs), sends)
	}
	for i, m := range msgs {
		if m != i {
			t.Fatalf("FIFO broken at %d: got %v", i, m)
		}
	}
}

func TestDirectCloseTransportIdempotent(t *testing.T) {
	n := NewNetwork(1)
	n.CloseTransport()
	n.CloseTransport()
}

func TestDrainAfterCloseUnderTransportFlush(t *testing.T) {
	// The documented shutdown order on abort: endpoints close first, the
	// transport flushes into them afterwards. Everything the transport
	// held must still be receivable from the closed endpoints — Close
	// wakes receivers, it never discards mailboxes.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 3, MaxDelay: time.Millisecond, StallEvery: 4, StallFor: 5 * time.Millisecond}))
	const sends = 12
	for i := 0; i < sends; i++ {
		n.Endpoint(0).Send(1, i)
	}
	ep := n.Endpoint(1)
	ep.Close()
	ep.Close() // double close of a mailbox with queued + in-transit messages
	n.CloseTransport()
	got := 0
	for {
		msgs := ep.RecvWait()
		if msgs == nil {
			break // closed and fully drained
		}
		for _, m := range msgs {
			if m != got {
				t.Fatalf("FIFO broken: got %v at position %d", m, got)
			}
			got++
		}
	}
	if got != sends {
		t.Fatalf("drained %d messages across close, want %d", got, sends)
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight %d after full drain", n.InFlight())
	}
}

// TestPendingMirrorsTheMailbox: the ready flag, which an idle TryRecvAll
// reads instead of taking the lock, is the answer to "would TryRecvAll
// return something", across sends, drains and Close.
func TestPendingMirrorsTheMailbox(t *testing.T) {
	n := NewNetwork(2)
	ep := n.Endpoint(1)
	if ep.ready.Load() {
		t.Fatal("empty mailbox reports pending")
	}
	if msgs := ep.TryRecvAll(); msgs != nil {
		t.Fatalf("idle poll returned %v, want nil", msgs)
	}
	n.Endpoint(0).Send(1, "a")
	n.Endpoint(0).Send(1, "b")
	if !ep.ready.Load() {
		t.Fatal("two queued messages, nothing pending")
	}
	ep.Close()
	if !ep.ready.Load() {
		t.Fatal("Close emptied the mailbox flag; the messages are still there to drain")
	}
	if msgs := ep.TryRecvAll(); len(msgs) != 2 {
		t.Fatalf("drained %v, want both messages", msgs)
	}
	if ep.ready.Load() {
		t.Fatal("drained mailbox still reports pending")
	}
	n.Endpoint(0).Send(1, "c")
	if !ep.ready.Load() {
		t.Fatal("send after close not pending")
	}
	if msgs := ep.RecvWait(); len(msgs) != 1 || ep.ready.Load() {
		t.Fatalf("RecvWait drained %v and left pending=%v", msgs, ep.ready.Load())
	}
}

// TestDrainsAlternateTwoBuffers pins the buffer contract: a drained slice
// is the receiver's until its next receive call, which takes the array back
// as the mailbox — emptied of the old messages, so they can be collected —
// and an exchange at steady state allocates nothing.
func TestDrainsAlternateTwoBuffers(t *testing.T) {
	n := NewNetwork(2)
	src, ep := n.Endpoint(0), n.Endpoint(1)
	var msg Message = "payload" // boxed once, so the sends allocate nothing
	drain := func(want int) []Message {
		t.Helper()
		for i := 0; i < want; i++ {
			src.Send(1, msg)
		}
		msgs := ep.TryRecvAll()
		if len(msgs) != want {
			t.Fatalf("drained %d messages, want %d", len(msgs), want)
		}
		for _, m := range msgs {
			if m != msg {
				t.Fatalf("drained %v", msgs)
			}
		}
		return msgs
	}
	a := drain(4)
	b := drain(3)
	if &a[0] == &b[0] {
		t.Fatal("consecutive drains returned the same array")
	}
	c := drain(2)
	if &c[0] != &a[0] {
		t.Error("third drain did not reuse the first one's array")
	}
	if a[2] != nil || a[3] != nil || b[0] != nil {
		t.Errorf("buffers taken back still hold old messages: first %v, second %v", a, b)
	}
	if avg := testing.AllocsPerRun(200, func() { drain(3) }); avg != 0 {
		t.Errorf("steady exchange allocates %.1f times per drain, want 0", avg)
	}
	if n.InFlight() != 0 {
		t.Errorf("in flight %d after every drain", n.InFlight())
	}
}

// TestPendingPolledBesideSenders is the kernel's use under the race
// detector: senders deliver while the one receiver polls with TryRecvAll,
// which most of the time finds the ready flag down and returns at once.
// Nothing is lost, every link stays FIFO, and the flag never strands a
// message.
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
				n.Endpoint(s).Send(senders, [2]int{s, i})
			}
		}(s)
	}
	next := make([]int, senders)
	got := 0
	for deadline := time.Now().Add(20 * time.Second); got < senders*per; {
		msgs := ep.TryRecvAll()
		if msgs == nil {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d messages arrived and nothing is pending", got, senders*per)
			}
			runtime.Gosched()
			continue
		}
		for _, m := range msgs {
			si := m.([2]int)
			if si[1] != next[si[0]] {
				t.Fatalf("link %d delivered %d, want %d", si[0], si[1], next[si[0]])
			}
			next[si[0]]++
			got++
		}
	}
	wg.Wait()
	if ep.ready.Load() || n.InFlight() != 0 {
		t.Errorf("after the last message: pending=%v, in flight %d", ep.ready.Load(), n.InFlight())
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

func (h *heldMarks) Send(src, dst int, msg Message) {}
func (h *heldMarks) Close()                         {}

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
