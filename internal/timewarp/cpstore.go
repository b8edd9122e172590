package timewarp

import (
	"sort"

	"repro/internal/netlist"
)

// netVal is one entry of a delta checkpoint: a net written since the
// previous checkpoint, with its value at this checkpoint's cycle.
type netVal struct {
	net netlist.NetID
	val bool
}

// netValBytes approximates the in-memory footprint of one delta entry
// (NetID plus bool, padded), used for the checkpoint-bytes-saved metric.
const netValBytes = 8

// keyframeEvery is the kernel's full-mirror cadence: one keyframe per this
// many checkpoint records. Restoring a delta record walks at most this
// many delta segments forward from its keyframe.
const keyframeEvery = 8

// checkpointRec is one saved state point: a keyframe carrying the full
// net-value mirror, or a delta carrying only the nets written since the
// previous record. Restoring a delta replays the delta chain forward from
// its governing keyframe, so every delta's keyframe always precedes it in
// the store — truncation keeps prefixes and fossil trimming never drops a
// keyframe still governing kept records.
type checkpointRec struct {
	cycle  uint64
	values []bool          // full mirror; nil for delta records
	delta  []netVal        // nets written since the previous record
	carry  []netlist.NetID // q-output changes pending at delta 0
}

func (r *checkpointRec) keyframe() bool { return r.values != nil }

// cpStore holds a cluster's checkpoints as a cycle-sorted slice: lookup is
// a binary search, rollback invalidation truncates the tail, and fossil
// collection trims the front — no map sweeps anywhere. Buffers cycle
// through per-store free-lists (the owning cluster goroutine is the only
// caller, so no locking) to flatten GC pressure across rollback storms.
type cpStore struct {
	recs          []checkpointRec
	keyframeEvery uint64 // records per keyframe (≥1)
	sinceKey      uint64 // delta records since the last keyframe

	valuesFree [][]bool
	deltaFree  [][]netVal
	carryFree  [][]netlist.NetID

	// hits/misses count free-list reuse vs fresh allocations; bytesSaved
	// accumulates the full-mirror bytes delta checkpoints avoided copying.
	// Read by the owning cluster only (mirrored into atomicStats there).
	hits, misses uint64
	bytesSaved   uint64
}

// newCPStore returns an empty store cutting a keyframe every cadence
// records (≥1; the kernel passes keyframeEvery, unit tests what they probe).
func newCPStore(cadence uint64) *cpStore {
	return &cpStore{keyframeEvery: cadence}
}

func (s *cpStore) len() int { return len(s.recs) }

// take appends a checkpoint of values at the given cycle. dirty lists the
// nets written since the previous take (deduplicated by the caller); it
// decides between a cheap delta record and a full keyframe. Calling take
// for a cycle at or before the newest record is a no-op (the state is
// already saved — the post-rollback re-execution path).
func (s *cpStore) take(cycle uint64, values []bool, carry, dirty []netlist.NetID) bool {
	if n := len(s.recs); n > 0 && s.recs[n-1].cycle >= cycle {
		return false
	}
	rec := checkpointRec{cycle: cycle}
	// A keyframe when the chain demands one, or when the delta would not
	// actually be smaller than the mirror it replaces.
	full := len(s.recs) == 0 || s.sinceKey+1 >= s.keyframeEvery ||
		len(dirty)*netValBytes >= len(values)
	if full {
		buf := s.getValues(len(values))
		copy(buf, values)
		rec.values = buf
		s.sinceKey = 0
	} else {
		d := s.getDelta(len(dirty))
		for _, n := range dirty {
			d = append(d, netVal{net: n, val: values[n]})
		}
		rec.delta = d
		s.sinceKey++
		if saved := len(values) - len(dirty)*netValBytes; saved > 0 {
			s.bytesSaved += uint64(saved)
		}
	}
	if len(carry) > 0 {
		rec.carry = append(s.getCarry(len(carry)), carry...)
	}
	s.recs = append(s.recs, rec)
	return true
}

// searchAtOrBefore returns the index of the newest record with cycle ≤ tc,
// or -1.
func (s *cpStore) searchAtOrBefore(tc uint64) int {
	return sort.Search(len(s.recs), func(i int) bool { return s.recs[i].cycle > tc }) - 1
}

// restore materializes the newest checkpoint at or before tc into values:
// it copies the governing keyframe and replays the delta segments forward
// up to the restore record. It returns the restored cycle and that
// record's pending carry (owned by the store — callers copy). values must
// be the full net mirror.
func (s *cpStore) restore(tc uint64, values []bool) (uint64, []netlist.NetID, bool) {
	ri := s.searchAtOrBefore(tc)
	if ri < 0 {
		return 0, nil, false
	}
	ki := ri
	for !s.recs[ki].keyframe() {
		ki-- // bounded by keyframeEvery
	}
	copy(values, s.recs[ki].values)
	for i := ki + 1; i <= ri; i++ {
		for _, nv := range s.recs[i].delta {
			values[nv.net] = nv.val
		}
	}
	return s.recs[ri].cycle, s.recs[ri].carry, true
}

// truncateAfter drops every record newer than cycle (rollback
// invalidation), recycling their buffers.
func (s *cpStore) truncateAfter(cycle uint64) {
	n := sort.Search(len(s.recs), func(i int) bool { return s.recs[i].cycle > cycle })
	if n == len(s.recs) {
		return
	}
	for i := n; i < len(s.recs); i++ {
		s.release(&s.recs[i])
	}
	s.recs = s.recs[:n]
	s.sinceKey = 0
	for i := len(s.recs) - 1; i >= 0 && !s.recs[i].keyframe(); i-- {
		s.sinceKey++
	}
}

// trimBefore fossil-collects records below the keep line. The governing
// keyframe of the newest record ≤ keep survives even when it is older than
// keep — dropping it would orphan the delta chain the keep-line restore
// point is rebuilt from.
func (s *cpStore) trimBefore(keep uint64) {
	ri := s.searchAtOrBefore(keep)
	if ri < 0 {
		return
	}
	ki := ri
	for !s.recs[ki].keyframe() {
		ki--
	}
	if ki == 0 {
		return
	}
	for i := 0; i < ki; i++ {
		s.release(&s.recs[i])
	}
	s.recs = append(s.recs[:0], s.recs[ki:]...)
	// sinceKey counts from the newest keyframe, untouched by a front trim.
}

func (s *cpStore) release(r *checkpointRec) {
	if r.values != nil {
		s.valuesFree = append(s.valuesFree, r.values)
		r.values = nil
	}
	if r.delta != nil {
		s.deltaFree = append(s.deltaFree, r.delta[:0])
		r.delta = nil
	}
	if r.carry != nil {
		s.carryFree = append(s.carryFree, r.carry[:0])
		r.carry = nil
	}
}

func (s *cpStore) getValues(n int) []bool {
	if l := len(s.valuesFree); l > 0 {
		buf := s.valuesFree[l-1]
		s.valuesFree = s.valuesFree[:l-1]
		s.hits++
		return buf[:n]
	}
	s.misses++
	return make([]bool, n)
}

func (s *cpStore) getDelta(n int) []netVal {
	if l := len(s.deltaFree); l > 0 {
		buf := s.deltaFree[l-1]
		s.deltaFree = s.deltaFree[:l-1]
		s.hits++
		return buf
	}
	s.misses++
	return make([]netVal, 0, n)
}

func (s *cpStore) getCarry(n int) []netlist.NetID {
	if l := len(s.carryFree); l > 0 {
		buf := s.carryFree[l-1]
		s.carryFree = s.carryFree[:l-1]
		s.hits++
		return buf
	}
	s.misses++
	return make([]netlist.NetID, 0, n)
}
