// Package timewarp is an optimistic parallel discrete-event simulation
// kernel for gate-level netlists — the role OOCTW (object-oriented
// Clustered Time Warp) plays under DVS in the paper. Each partition of the
// netlist becomes a cluster of logic owned by one goroutine ("machine");
// clusters exchange net-change events through the comm network, execute
// optimistically ahead of their peers, and repair causality violations by
// rolling back to a saved checkpoint, cancelling already-sent events with
// anti-messages, and replaying.
//
// Virtual time is shared verbatim with the sequential simulator
// (cycle*DeltaRange + delta), so a Time Warp run over any partitioning
// commits exactly the same per-cycle waveforms as sim.Simulator — the
// correctness property the tests assert.
package timewarp

import (
	"repro/internal/netlist"
	"repro/internal/obs/causality"
	"repro/internal/sim"
)

// event is a net value change at a virtual time, sent between clusters.
type event struct {
	T    sim.VTime
	Net  netlist.NetID
	Val  bool
	Anti bool
	Src  int32
	Seq  uint64 // per-source sequence number; anti-messages repeat it
	// Parent is the remote event whose consumption preceded this send in
	// the generating cycle, and Origin the straggler-origin id blame
	// propagates through rollback re-execution and anti-messages. Both
	// zero when causality recording is off (Config.Causality nil).
	Parent causality.EventID
	Origin causality.EventID
}

// batch is the transport payload coalescing every event one cluster emits
// to one destination within a cycle into a single comm.Message. Order
// within the batch is send order, so per-link FIFO survives batching: the
// receiver unpacks sequentially and an anti-message can never overtake the
// positive it cancels.
type batch []event

// heapKey identifies a positive event for annihilation: anti-messages
// repeat their positive's (Src, Seq).
type heapKey struct {
	src int32
	seq uint64
}

// eventHeap is a min-heap of events ordered by (T, Src, Seq) — so replay
// order is deterministic — backed by a (src, seq) → heap-index map
// maintained through every sift, so anti-message annihilation
// (removeMatching) is an O(1) lookup plus an O(log n) removal instead of
// the former O(n) scan.
//
// The kernel guarantees a positive (src, seq) resides in the heap at most
// once (exactly-once delivery; an event lives in either pending or the
// processed log, never both — rollback moves it back atomically). Should a
// duplicate positive key ever be pushed anyway (tests can), the heap
// detects the collision and degrades to the scan fallback until it drains,
// so a colliding key can never annihilate the wrong copy via a stale index.
type eventHeap struct {
	ev []event
	// pos indexes positive events only; anti-marked events are never
	// annihilation targets and stay unindexed.
	pos map[heapKey]int
	// dups counts positive keys pushed while already indexed. While
	// non-zero the index is untrusted and removeMatching scans; the state
	// resets when the heap drains.
	dups int
}

func (h *eventHeap) Len() int { return len(h.ev) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.T != b.T {
		return a.T < b.T
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

func (h *eventHeap) swap(i, j int) {
	h.ev[i], h.ev[j] = h.ev[j], h.ev[i]
	if !h.ev[i].Anti {
		h.pos[heapKey{h.ev[i].Src, h.ev[i].Seq}] = i
	}
	if !h.ev[j].Anti {
		h.pos[heapKey{h.ev[j].Src, h.ev[j].Seq}] = j
	}
}

// up and down are container/heap's sifts, written over the event slice so
// that pushing and popping an event does not box it into an interface: a
// rollback requeues its replay-log tail through here without allocating.
func (h *eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) pushEvent(e event) {
	if !e.Anti {
		if h.pos == nil {
			h.pos = make(map[heapKey]int)
		}
		k := heapKey{e.Src, e.Seq}
		if _, exists := h.pos[k]; exists {
			h.dups++
		} else {
			h.pos[k] = len(h.ev)
		}
	}
	h.ev = append(h.ev, e)
	h.up(len(h.ev) - 1)
}

func (h *eventHeap) popEvent() event { return h.remove(0) }

// remove takes the event at heap index i out and returns it.
func (h *eventHeap) remove(i int) event {
	n := len(h.ev) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	e := h.ev[n]
	h.ev = h.ev[:n]
	if !e.Anti && h.dups == 0 {
		delete(h.pos, heapKey{e.Src, e.Seq})
	}
	if len(h.ev) == 0 && (h.dups > 0 || len(h.pos) > 0) {
		// Drained: any collision state (and stale entries it left behind)
		// is gone; re-arm the index.
		h.dups = 0
		clear(h.pos)
	}
	return e
}

// min returns the heap minimum without removing it. Caller checks Len.
func (h *eventHeap) min() *event { return &h.ev[0] }

// removeMatching deletes the positive event with the given (src, seq),
// returning whether one was found. Anti-marked events never match.
func (h *eventHeap) removeMatching(src int32, seq uint64) bool {
	if h.dups == 0 {
		i, ok := h.pos[heapKey{src, seq}]
		if !ok {
			return false
		}
		h.remove(i)
		return true
	}
	// Collision fallback: the index may point at either duplicate, so scan
	// for the first match in slice order — the pre-index behaviour.
	for i := range h.ev {
		if h.ev[i].Src == src && h.ev[i].Seq == seq && !h.ev[i].Anti {
			h.remove(i)
			return true
		}
	}
	return false
}
