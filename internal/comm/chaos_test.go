package comm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drainUntil takes the frames of the src→ep link until want arrived or
// the deadline passes.
func drainUntil(t *testing.T, ep *Endpoint, src, want int, deadline time.Duration) []*Frame {
	t.Helper()
	var got []*Frame
	stop := time.Now().Add(deadline)
	for len(got) < want {
		got = append(got, takeAll(ep, src)...)
		if time.Now().After(stop) {
			t.Fatalf("took %d of %d frames before deadline", len(got), want)
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
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	inOrder(t, drainUntil(t, n.Endpoint(1), 0, count, 10*time.Second))
}

// TestChaosPreservesBatchOrder sends frames of one to four words, each
// word a sequence number, through the chaos transport: each frame must
// arrive intact, its words as sent, in per-link send order relative to its
// neighbours — the property that lets a receiver unpack frames
// sequentially.
func TestChaosPreservesBatchOrder(t *testing.T) {
	n := NewNetworkTransport(2, Chaos(ChaosConfig{
		Seed: 11, MaxDelay: 300 * time.Microsecond, StallEvery: 13, StallFor: time.Millisecond,
	}))
	defer n.CloseTransport()
	const count = 400
	next := uint64(0)
	for i := 0; i < count; i++ {
		f := &Frame{T: uint64(i), Src: 0, Words: make([]uint64, 1+i%4)}
		for j := range f.Words {
			f.Words[j] = next
			next++
		}
		n.Endpoint(0).Send(1, f)
	}
	got := drainUntil(t, n.Endpoint(1), 0, count, 10*time.Second)
	inOrder(t, got)
	seq := uint64(0)
	for i, f := range got {
		if len(f.Words) != 1+i%4 {
			t.Fatalf("frame %d: %d words, want %d", i, len(f.Words), 1+i%4)
		}
		for _, w := range f.Words {
			if w != seq {
				t.Fatalf("frame %d: word %d, want %d", i, w, seq)
			}
			seq++
		}
	}
	if seq != next {
		t.Fatalf("took %d of %d words", seq, next)
	}
}

func TestChaosCloseFlushesHeldMessages(t *testing.T) {
	// Huge delays: everything sits in transport limbo until CloseTransport,
	// which must deliver every held frame, in link order.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 3, MaxDelay: time.Hour}))
	const count = 50
	for i := 0; i < count; i++ {
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	if got := takeAll(n.Endpoint(1), 0); got != nil {
		t.Fatalf("%d frames delivered despite hour-long delay", len(got))
	}
	// Close flushes everything held: no loss.
	n.CloseTransport()
	got := takeAll(n.Endpoint(1), 0)
	if len(got) != count {
		t.Fatalf("close flushed %d of %d frames", len(got), count)
	}
	inOrder(t, got)
}

func TestChaosConcurrentSendersExactlyOnce(t *testing.T) {
	// Three endpoints hammer each other through the chaos transport while
	// receivers take concurrently; every frame must arrive exactly once
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
				n.Endpoint(src).Send((src+1)%3, fr(int32(src), uint64(i)))
				n.Endpoint(src).Send((src+2)%3, fr(int32(src), uint64(i)))
			}
		}(src)
	}
	recv := make([][]*Frame, 3)
	for dst := 0; dst < 3; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			stop := time.Now().Add(20 * time.Second)
			for len(recv[dst]) < 2*per {
				for src := range 3 {
					if src != dst {
						recv[dst] = append(recv[dst], takeAll(n.Endpoint(dst), src)...)
					}
				}
				if time.Now().After(stop) {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(dst)
	}
	wg.Wait()
	for dst := 0; dst < 3; dst++ {
		if len(recv[dst]) != 2*per {
			t.Fatalf("endpoint %d received %d of %d", dst, len(recv[dst]), 2*per)
		}
		// Per-source sequence numbers must arrive strictly increasing.
		next := map[int32]uint64{}
		for _, f := range recv[dst] {
			if f.T != next[f.Src] {
				t.Fatalf("endpoint %d: src %d delivered seq %d, want %d", dst, f.Src, f.T, next[f.Src])
			}
			next[f.Src]++
		}
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
		n.Endpoint(0).Send(1, fr(0, uint64(i)))
	}
	inOrder(t, drainUntil(t, n.Endpoint(1), 0, count, 10*time.Second))
}

func TestChaosAwaitHeardWokenByPump(t *testing.T) {
	// A receiver asleep in AwaitHeard must be woken when the pump finally
	// delivers a delayed watermark, and hold the frame sent before it.
	n := NewNetworkTransport(2, Chaos(ChaosConfig{Seed: 9, MaxDelay: 2 * time.Millisecond}))
	defer n.CloseTransport()
	done := make(chan bool, 1)
	go func() { done <- n.Endpoint(1).AwaitHeard(0, 1) }()
	n.Endpoint(0).Send(1, fr(0, 0))
	n.Endpoint(0).Mark(1)
	select {
	case ok := <-done:
		if f := n.Endpoint(1).Take(0, 0); !ok || f == nil {
			t.Fatalf("heard %v, took %v", ok, f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitHeard never woken by pump delivery")
	}
}

// TestChaosMarkFollowsItsLinksMessages sends, on every link out of one
// endpoint, a frame and then a watermark counting the frames sent so far,
// through a stalling chaos schedule. A watermark arrives after its sender
// marked it — the links must be seen to hold one — but never ahead of a
// frame sent before it, on any link: whatever a receiver has heard, it has
// received at least that many frames once it empties its link.
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
				n.Endpoint(0).Send(dst, fr(0, uint64(i)))
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
				got += len(takeAll(ep, 0))
				if uint64(got) < heard {
					t.Errorf("endpoint %d heard watermark %d with %d frames received", ep.id, heard, got)
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
