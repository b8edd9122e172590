package timewarp

import (
	"math/rand"
	"testing"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	rng := rand.New(rand.NewSource(1))
	const n = 500
	for i := 0; i < n; i++ {
		h.pushEvent(event{
			T:   uint64(rng.Intn(50)),
			Src: int32(rng.Intn(4)),
			Seq: uint64(rng.Intn(1000)),
		})
	}
	var prev event
	for i := 0; i < n; i++ {
		e := h.popEvent()
		if i > 0 {
			if e.T < prev.T {
				t.Fatalf("heap order violated: T %d after %d", e.T, prev.T)
			}
			if e.T == prev.T && e.Src < prev.Src {
				t.Fatalf("tie-break by Src violated")
			}
			if e.T == prev.T && e.Src == prev.Src && e.Seq < prev.Seq {
				t.Fatalf("tie-break by Seq violated")
			}
		}
		prev = e
	}
	if h.Len() != 0 {
		t.Errorf("heap not drained: %d left", h.Len())
	}
}

func TestEventHeapRemoveMatching(t *testing.T) {
	var h eventHeap
	h.pushEvent(event{T: 5, Src: 1, Seq: 10})
	h.pushEvent(event{T: 3, Src: 2, Seq: 10})
	h.pushEvent(event{T: 7, Src: 1, Seq: 11})

	if !h.removeMatching(1, 10) {
		t.Fatal("should find (1, 10)")
	}
	if h.removeMatching(1, 10) {
		t.Fatal("(1, 10) should be gone")
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
	// Anti-marked events are never matched (only positives annihilate).
	h.pushEvent(event{T: 9, Src: 3, Seq: 1, Anti: true})
	if h.removeMatching(3, 1) {
		t.Fatal("anti events must not match")
	}
	// Heap invariant survives removals.
	if e := h.popEvent(); e.T != 3 {
		t.Fatalf("min after removal: %d, want 3", e.T)
	}
	if !h.removeMatching(1, 11) {
		t.Fatal("should find (1, 11)")
	}
	// Only the anti remains.
	if h.Len() != 1 || !h.min().Anti {
		t.Fatalf("unexpected heap tail: %+v", h.ev)
	}
}

// TestEventHeapIndexMatchesScan cross-checks the indexed removeMatching
// against a naive linear scan over a randomized push/pop/remove workload —
// the index must never remove a different event than the scan would, and
// the heap order must survive every removal.
func TestEventHeapIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	type key struct {
		src int32
		seq uint64
	}
	live := make(map[key]bool) // positives currently in the heap
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // push a fresh positive
			e := event{
				T:   uint64(rng.Intn(64)),
				Src: int32(rng.Intn(3)),
				Seq: uint64(step), // unique, as the kernel guarantees
			}
			h.pushEvent(e)
			live[key{e.Src, e.Seq}] = true
		case op < 7: // pop the minimum
			if h.Len() == 0 {
				continue
			}
			e := h.popEvent()
			if !e.Anti {
				delete(live, key{e.Src, e.Seq})
			}
		default: // annihilate a random live positive (or a missing one)
			var k key
			if len(live) > 0 && rng.Intn(4) > 0 {
				for k = range live {
					break
				}
			} else {
				k = key{int32(rng.Intn(3)), uint64(rng.Intn(step + 1))}
			}
			want := live[k]
			got := h.removeMatching(k.src, k.seq)
			if got != want {
				t.Fatalf("step %d: removeMatching(%d,%d) = %v, want %v", step, k.src, k.seq, got, want)
			}
			delete(live, k)
		}
	}
	// Drain and verify heap order plus exact content.
	var prev event
	for i := 0; h.Len() > 0; i++ {
		e := h.popEvent()
		if i > 0 && (e.T < prev.T || (e.T == prev.T && e.Src < prev.Src) ||
			(e.T == prev.T && e.Src == prev.Src && e.Seq < prev.Seq)) {
			t.Fatalf("heap order violated after removals: %+v after %+v", e, prev)
		}
		prev = e
		delete(live, key{e.Src, e.Seq})
	}
	if len(live) != 0 {
		t.Fatalf("%d live events lost", len(live))
	}
}

// TestEventHeapDuplicateKeyCollision pins the (src,seq) collision
// semantics the rollback replay path relies on: if the same positive key is
// ever present twice (it cannot be in the kernel, but the index must not
// silently corrupt if it were), annihilation falls back to the pre-index
// linear scan and removes the first slice-order match — never a third,
// unrelated event via a stale index entry, and one anti-message still
// annihilates exactly one copy.
func TestEventHeapDuplicateKeyCollision(t *testing.T) {
	var h eventHeap
	h.pushEvent(event{T: 10, Src: 1, Seq: 5, Val: false})
	h.pushEvent(event{T: 20, Src: 2, Seq: 9})
	h.pushEvent(event{T: 30, Src: 1, Seq: 5, Val: true}) // colliding key

	if !h.removeMatching(1, 5) {
		t.Fatal("first annihilation should match a (1,5) copy")
	}
	if h.Len() != 2 {
		t.Fatalf("one event must be removed, len = %d", h.Len())
	}
	// The unrelated event must be untouched.
	found := false
	for _, e := range h.ev {
		if e.Src == 2 && e.Seq == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("collision removal took the wrong event: (2,9) is gone")
	}
	// The second copy is still annihilatable.
	if !h.removeMatching(1, 5) {
		t.Fatal("second (1,5) copy should still match")
	}
	if h.removeMatching(1, 5) {
		t.Fatal("no (1,5) copies left")
	}
	// Drain fully: the collision state must reset and the index must be
	// trusted again afterwards.
	for h.Len() > 0 {
		h.popEvent()
	}
	if h.dups != 0 {
		t.Fatalf("dups counter not reset on drain: %d", h.dups)
	}
	h.pushEvent(event{T: 1, Src: 1, Seq: 5})
	if !h.removeMatching(1, 5) {
		t.Fatal("index must work again after drain")
	}
}

// TestEventHeapCoastForwardRequeue models the rollback path: a processed
// event is pushed back into the queue (same (src,seq) — the SAME event
// object, not a duplicate), and a later anti-message must annihilate
// exactly that re-queued copy even with other traffic interleaved.
func TestEventHeapCoastForwardRequeue(t *testing.T) {
	var h eventHeap
	// Initial delivery and consumption.
	h.pushEvent(event{T: 40, Src: 0, Seq: 3})
	h.pushEvent(event{T: 41, Src: 1, Seq: 3}) // same seq, different src
	got := h.popEvent()
	if got.Src != 0 || got.Seq != 3 {
		t.Fatalf("popped %+v", got)
	}
	// Rollback re-queues the processed event for replay.
	h.pushEvent(got)
	// More traffic lands around it.
	h.pushEvent(event{T: 39, Src: 2, Seq: 8})
	h.pushEvent(event{T: 42, Src: 0, Seq: 4})
	// The anti-message for (0,3) arrives before replay reaches it.
	if !h.removeMatching(0, 3) {
		t.Fatal("re-queued event must be annihilatable")
	}
	// Exactly the right events remain.
	rest := map[[2]int64]bool{}
	for h.Len() > 0 {
		e := h.popEvent()
		rest[[2]int64{int64(e.Src), int64(e.Seq)}] = true
	}
	for _, k := range [][2]int64{{1, 3}, {2, 8}, {0, 4}} {
		if !rest[k] {
			t.Fatalf("event (src=%d,seq=%d) lost by annihilation", k[0], k[1])
		}
	}
	if len(rest) != 3 {
		t.Fatalf("unexpected survivors: %v", rest)
	}
}
