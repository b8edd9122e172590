package comm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainUntil polls dst with TryRecvAll until want messages arrived or the
// deadline passes.
func drainUntil(t *testing.T, ep *Endpoint, want int, deadline time.Duration) []Message {
	t.Helper()
	var got []Message
	stop := time.Now().Add(deadline)
	for len(got) < want {
		got = append(got, ep.TryRecvAll()...)
		if time.Now().After(stop) {
			t.Fatalf("drained %d of %d messages before deadline", len(got), want)
		}
	}
	return got
}

func TestChaosPreservesPerLinkFIFO(t *testing.T) {
	n := NewNetworkTransport(2, Chaos(ChaosConfig{
		Seed: 7, MaxDelay: 300 * time.Microsecond, StallEvery: 17, StallFor: time.Millisecond,
	}))
	defer n.CloseTransport()
	const count = 800
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, i)
	}
	got := drainUntil(t, n.Endpoint(1), count, 10*time.Second)
	for i, m := range got {
		if m != i {
			t.Fatalf("message %d delivered out of order: %v", i, m)
		}
	}
	if n.InFlight() != 0 {
		t.Errorf("in flight %d after full drain", n.InFlight())
	}
}

// TestChaosPreservesBatchOrder sends slice-valued payloads (the batched
// framing the Time Warp kernel uses) mixed with single values through the
// chaos transport: each batch must arrive intact as one message, in
// per-link send order relative to its neighbours — the property that lets
// a receiver unpack batches sequentially.
func TestChaosPreservesBatchOrder(t *testing.T) {
	n := NewNetworkTransport(2, Chaos(ChaosConfig{
		Seed: 11, MaxDelay: 300 * time.Microsecond, StallEvery: 13, StallFor: time.Millisecond,
	}))
	defer n.CloseTransport()
	const count = 400
	next := 0
	sent := 0
	for i := 0; i < count; i++ {
		if i%3 == 0 { // a batch of 1..4 sequenced items
			b := make([]int, 1+i%4)
			for j := range b {
				b[j] = next
				next++
			}
			n.Endpoint(0).Send(1, b)
		} else {
			n.Endpoint(0).Send(1, next)
			next++
		}
		sent++
	}
	got := drainUntil(t, n.Endpoint(1), sent, 10*time.Second)
	seq := 0
	for i, m := range got {
		switch v := m.(type) {
		case int:
			if v != seq {
				t.Fatalf("message %d: got %d, want %d", i, v, seq)
			}
			seq++
		case []int:
			for _, item := range v {
				if item != seq {
					t.Fatalf("message %d: batch item %d, want %d", i, item, seq)
				}
				seq++
			}
		default:
			t.Fatalf("message %d: unexpected payload %T", i, m)
		}
	}
	if seq != next {
		t.Fatalf("drained %d of %d items", seq, next)
	}
}

func TestChaosInFlightCountsHeldMessages(t *testing.T) {
	// Huge delays: everything sits in transport limbo, yet InFlight must
	// count it — the kernel's termination logic depends on held messages
	// staying visible as in flight.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 3, MaxDelay: time.Hour}))
	const count = 50
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, i)
	}
	if got := n.InFlight(); got != count {
		t.Fatalf("in flight %d, want %d (held messages must count)", got, count)
	}
	if got := n.Endpoint(1).TryRecvAll(); got != nil {
		t.Fatalf("messages delivered despite hour-long delay: %v", got)
	}
	// Close flushes everything held: no loss.
	n.CloseTransport()
	got := n.Endpoint(1).TryRecvAll()
	if len(got) != count {
		t.Fatalf("close flushed %d of %d messages", len(got), count)
	}
	for i, m := range got {
		if m != i {
			t.Fatalf("flush broke FIFO at %d: %v", i, m)
		}
	}
	if n.InFlight() != 0 {
		t.Errorf("in flight %d after flush and drain", n.InFlight())
	}
}

func TestChaosConcurrentSendersExactlyOnce(t *testing.T) {
	// Three endpoints hammer each other through the chaos transport while
	// receivers drain concurrently; every message must arrive exactly once
	// and per-link order must hold (-race covers the locking).
	n := NewNetworkTransport(3, Chaos(ChaosConfig{
		Seed: 11, MaxDelay: 100 * time.Microsecond, StallEvery: 23, StallFor: 500 * time.Microsecond,
	}))
	defer n.CloseTransport()
	const per = 400
	var wg sync.WaitGroup
	for src := 0; src < 3; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n.Endpoint(src).Send((src+1)%3, [2]int{src, i})
				n.Endpoint(src).Send((src+2)%3, [2]int{src, i})
			}
		}(src)
	}
	recv := make([][]Message, 3)
	for dst := 0; dst < 3; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			stop := time.Now().Add(20 * time.Second)
			for len(recv[dst]) < 2*per {
				recv[dst] = append(recv[dst], n.Endpoint(dst).TryRecvAll()...)
				if time.Now().After(stop) {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(dst)
	}
	wg.Wait()
	if n.TotalSent() != 6*per {
		t.Fatalf("total sent %d, want %d", n.TotalSent(), 6*per)
	}
	for dst := 0; dst < 3; dst++ {
		if len(recv[dst]) != 2*per {
			t.Fatalf("endpoint %d received %d of %d", dst, len(recv[dst]), 2*per)
		}
		// Per-source sequence numbers must arrive strictly increasing.
		next := map[int]int{}
		for _, m := range recv[dst] {
			p := m.([2]int)
			if p[1] != next[p[0]] {
				t.Fatalf("endpoint %d: src %d delivered seq %d, want %d", dst, p[0], p[1], next[p[0]])
			}
			next[p[0]]++
		}
	}
	if n.InFlight() != 0 {
		t.Errorf("in flight %d after full drain", n.InFlight())
	}
}

func TestChaosStallReleasesBurst(t *testing.T) {
	// A stalled link must buffer, then release everything; nothing is lost.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{
		Seed: 5, MaxDelay: 20 * time.Microsecond, StallEvery: 5, StallFor: 3 * time.Millisecond,
	}))
	defer n.CloseTransport()
	const count = 60
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, i)
	}
	got := drainUntil(t, n.Endpoint(1), count, 10*time.Second)
	for i, m := range got {
		if m != i {
			t.Fatalf("stall broke FIFO at %d: %v", i, m)
		}
	}
}

func TestChaosRecvWaitWokenByPump(t *testing.T) {
	// A receiver blocked in RecvWait must be woken when the pump finally
	// delivers a delayed message — the path finished Time Warp clusters
	// take while stragglers are still in limbo.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 9, MaxDelay: 2 * time.Millisecond}))
	defer n.CloseTransport()
	done := make(chan []Message, 1)
	go func() { done <- n.Endpoint(1).RecvWait() }()
	n.Endpoint(0).Send(1, "late")
	select {
	case msgs := <-done:
		if len(msgs) != 1 || msgs[0] != "late" {
			t.Fatalf("messages: %v", msgs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvWait never woken by pump delivery")
	}
}

// TestChaosMarkFollowsItsLinksMessages sends, on every link out of one
// endpoint, a message and then a watermark counting the messages sent so
// far, through a stalling chaos schedule. A watermark arrives after its
// sender marked it — the links must be seen to hold one — but never ahead
// of a message sent before it, on any link: whatever a receiver has heard,
// it has received at least that many messages once it drains its mailbox.
func TestChaosMarkFollowsItsLinksMessages(t *testing.T) {
	const k, count = 3, 400
	n := NewNetworkTransport(k, Chaos(ChaosConfig{
		Seed: 5, MaxDelay: 300 * time.Microsecond, StallEvery: 13, StallFor: time.Millisecond,
	}))
	defer n.CloseTransport()
	var marked atomic.Uint64
	go func() {
		for i := 1; i <= count; i++ {
			for dst := 1; dst < k; dst++ {
				n.Endpoint(0).Send(dst, i)
			}
			n.Endpoint(0).Mark(uint64(i))
			marked.Store(uint64(i))
		}
	}()
	var wg sync.WaitGroup
	for dst := 1; dst < k; dst++ {
		ep := n.Endpoint(dst)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, held := 0, false
			for deadline := time.Now().Add(10 * time.Second); ep.Heard(0) < count; {
				heard := ep.Heard(0)
				got += len(ep.TryRecvAll())
				if uint64(got) < heard {
					t.Errorf("endpoint %d heard watermark %d with %d messages received", ep.id, heard, got)
					return
				}
				held = held || marked.Load() > ep.Heard(0)
				if time.Now().After(deadline) {
					t.Errorf("endpoint %d: watermark %d of %d before the deadline", ep.id, ep.Heard(0), count)
					return
				}
			}
			if !held {
				t.Errorf("endpoint %d: the link never held a watermark its sender had marked", ep.id)
			}
		}()
	}
	wg.Wait()
}
