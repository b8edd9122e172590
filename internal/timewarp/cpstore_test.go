package timewarp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// mkvals builds a value mirror of n nets with the given true positions.
func mkvals(n int, ones ...netlist.NetID) []bool {
	v := make([]bool, n)
	for _, i := range ones {
		v[i] = true
	}
	return v
}

func TestCPStoreRestoreOnKeyframe(t *testing.T) {
	s := newCPStore(4)
	vals := mkvals(64)
	if !s.take(0, vals, nil, nil) { // keyframe (first record)
		t.Fatal("first take refused")
	}
	vals[3] = true
	s.take(1, vals, nil, []netlist.NetID{3})
	vals[7] = true
	s.take(2, vals, nil, []netlist.NetID{7})

	// Restoring exactly on the keyframe must not apply any delta.
	out := mkvals(64, 3, 7, 20) // scribbled state
	cyc, carry, ok := s.restore(0, out)
	if !ok || cyc != 0 || carry != nil {
		t.Fatalf("restore(0) = %d,%v,%v", cyc, carry, ok)
	}
	for i, v := range out {
		if v != false {
			t.Fatalf("net %d not restored to keyframe value", i)
		}
	}
}

func TestCPStoreRestoreSpansDeltaSegments(t *testing.T) {
	s := newCPStore(8)
	n := 128
	vals := mkvals(n)
	s.take(0, vals, nil, nil) // keyframe
	// Five delta segments, each touching distinct and overlapping nets.
	writes := [][]netlist.NetID{{1, 2}, {2, 3}, {4}, {1, 5}, {6}}
	for i, w := range writes {
		for _, nid := range w {
			vals[nid] = !vals[nid]
		}
		s.take(uint64(i+1), vals, []netlist.NetID{netlist.NetID(i)}, w)
	}
	snapshot := append([]bool(nil), vals...)

	// Restore the newest record: must replay all five segments in order.
	out := mkvals(n, 9, 10, 11)
	// Start from an arbitrary scribble; restore overwrites via keyframe copy.
	cyc, carry, ok := s.restore(99, out)
	if !ok || cyc != 5 {
		t.Fatalf("restore = %d,%v", cyc, ok)
	}
	if len(carry) != 1 || carry[0] != 4 {
		t.Fatalf("carry = %v, want [4]", carry)
	}
	for i := range out {
		if out[i] != snapshot[i] {
			t.Fatalf("net %d: restored %v, want %v", i, out[i], snapshot[i])
		}
	}
	// A mid-chain restore must stop replay at its record.
	out2 := make([]bool, n)
	cyc, _, _ = s.restore(2, out2)
	if cyc != 2 {
		t.Fatalf("mid restore cycle = %d", cyc)
	}
	// After segment 2: net1 toggled once (true), net2 twice (false), net3
	// once (true); later writes (4,5,6) must NOT be applied.
	want := mkvals(n, 1, 3)
	for i := range out2 {
		if out2[i] != want[i] {
			t.Fatalf("mid restore net %d: %v, want %v", i, out2[i], want[i])
		}
	}
}

func TestCPStoreKeyframeCadenceAndFallback(t *testing.T) {
	s := newCPStore(3)
	vals := mkvals(256)
	dirtyAll := make([]netlist.NetID, 256)
	for i := range dirtyAll {
		dirtyAll[i] = netlist.NetID(i)
	}
	s.take(0, vals, nil, nil)                   // keyframe (first)
	s.take(1, vals, nil, []netlist.NetID{1})    // delta
	s.take(2, vals, nil, []netlist.NetID{2})    // delta
	s.take(3, vals, nil, []netlist.NetID{3})    // keyframe (cadence 3)
	s.take(4, vals, nil, dirtyAll)              // keyframe (delta >= mirror)
	s.take(5, vals, nil, []netlist.NetID{1, 2}) // delta
	wantKey := []bool{true, false, false, true, true, false}
	for i, w := range wantKey {
		if s.recs[i].keyframe() != w {
			t.Fatalf("rec %d keyframe = %v, want %v", i, s.recs[i].keyframe(), w)
		}
	}
	// Re-taking an already-saved cycle (post-rollback re-execution) is a
	// no-op.
	if s.take(5, vals, nil, nil) || s.take(2, vals, nil, nil) {
		t.Fatal("re-take of existing cycle must refuse")
	}
	if s.len() != 6 {
		t.Fatalf("len = %d", s.len())
	}
}

func TestCPStoreTruncateAndTrim(t *testing.T) {
	s := newCPStore(4)
	vals := mkvals(32)
	for c := uint64(0); c < 12; c++ {
		var dirty []netlist.NetID
		if c > 0 {
			vals[c] = true
			dirty = []netlist.NetID{netlist.NetID(c)}
		}
		s.take(c, vals, nil, dirty)
	}
	// Rollback invalidation: drop everything after cycle 6.
	s.truncateAfter(6)
	if got := s.recs[s.len()-1].cycle; got != 6 {
		t.Fatalf("latest after truncate = %d", got)
	}
	// Restore of 6 must still replay correctly (keyframes at 0,4 w/ cadence
	// 4 → governing keyframe of 6 is 4).
	out := make([]bool, 32)
	if cyc, _, ok := s.restore(6, out); !ok || cyc != 6 {
		t.Fatalf("restore(6) = %d,%v", cyc, ok)
	}
	for i := 1; i <= 6; i++ {
		if !out[i] {
			t.Fatalf("net %d lost after truncate+restore", i)
		}
	}
	// Fossil trim to cycle 6: the governing keyframe (4) must survive even
	// though it is below the line; records before it must go.
	s.trimBefore(6)
	if s.recs[0].cycle != 4 || !s.recs[0].keyframe() {
		t.Fatalf("front record after trim: cycle %d keyframe=%v", s.recs[0].cycle, s.recs[0].keyframe())
	}
	out2 := make([]bool, 32)
	if cyc, _, ok := s.restore(6, out2); !ok || cyc != 6 {
		t.Fatalf("restore(6) after trim = %d,%v", cyc, ok)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("net %d differs after trim", i)
		}
	}
	// Growth continues and pooling reuses released buffers.
	misses := s.misses
	vals[20] = true
	s.take(12, vals, []netlist.NetID{20}, []netlist.NetID{20})
	if s.hits == 0 {
		t.Error("trim released buffers but take allocated fresh (no pool hit)")
	}
	_ = misses
}

func TestCPStoreSingleCheckpointWholeRun(t *testing.T) {
	// Only cycle 0 is ever saved: it is the newest record at or before any
	// cycle, and the caller sees from the returned cycle which one it got.
	s := newCPStore(keyframeEvery)
	vals := mkvals(8, 2)
	s.take(0, vals, []netlist.NetID{5}, nil)
	out := make([]bool, 8)
	cyc, carry, ok := s.restore(1<<40, out)
	if !ok || cyc != 0 || len(carry) != 1 || carry[0] != 5 || !out[2] {
		t.Fatalf("restore = %d,%v,%v out=%v", cyc, carry, ok, out)
	}
	if s.searchAtOrBefore(0) != 0 {
		t.Fatal("cycle 0 must be findable")
	}
}

func viterbiDesign(t *testing.T) *elab.Design {
	t.Helper()
	ed, err := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

func TestRollbackAcrossKeyframesAndDeltas(t *testing.T) {
	// Rollbacks land both exactly on keyframes and inside delta chains, and
	// restores span several delta segments. Random partitioning provokes
	// plenty.
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 31), 4, 120, 37, func(*Config) {})
	if st.Rollbacks == 0 {
		t.Error("expected rollbacks under random partitioning")
	}
}

func TestBatchingDisabledStillCorrect(t *testing.T) {
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 47), 4, 100, 53, func(c *Config) {
		c.DisableBatching = true
	})
	if st.Batches != st.BatchedEvents {
		t.Errorf("unbatched run must ship one event per message: %d batches, %d events",
			st.Batches, st.BatchedEvents)
	}
}

func TestBatchingCoalesces(t *testing.T) {
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 47), 4, 100, 53, func(c *Config) {})
	if st.BatchedEvents <= st.Batches {
		t.Errorf("batching never coalesced: %d batches for %d events", st.Batches, st.BatchedEvents)
	}
	t.Logf("mean batch size %.2f", float64(st.BatchedEvents)/float64(st.Batches))
}

func TestFossilCollectionRacesDeepRollback(t *testing.T) {
	// A run with a wide window: GVT advances and fossil-collects while
	// stragglers force deep rollbacks near the fossil line. Run under -race
	// in CI; the waveform oracle plus the kernel's fossil-restore invariant
	// check catch any unsafe trim.
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 59), 4, 100, 61, func(c *Config) {
		c.Window = 16
	})
	if st.Rollbacks == 0 {
		t.Error("expected rollbacks in the fossil/rollback race test")
	}
	t.Logf("rollbacks=%d maxDepth=%d pooled hits=%d misses=%d bytesSaved=%d",
		st.Rollbacks, st.MaxStragglerDepth, st.PoolHits, st.PoolMisses, st.CheckpointBytesSaved)
}

// driveCPStore runs one schedule of the kernel's calls on a checkpoint
// store — take at the start of every cycle, restore + truncateAfter for a
// rollback, trimBefore for a fossil collection — against a model that keeps
// one full mirror per cycle. After every call each cycle from the fossil
// line up restores to the model's values and carry, the records are one per
// cycle without a gap, and a buffer was made fresh only when no released one
// of its kind was waiting.
func driveCPStore(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	type mirror struct {
		values []bool
		carry  []netlist.NetID
	}
	var (
		s      = newCPStore(1 + uint64(data[0]%keyframeEvery))
		values = make([]bool, 16+int(data[1]%112))
		carry  []netlist.NetID
		dirty  []netlist.NetID
		model  = map[uint64]mirror{}
		cycle  uint64 // the next to execute
		fossil uint64
		out    = make([]bool, len(values))
	)
	check := func(what string) {
		t.Helper()
		deltas := uint64(0) // since the last keyframe
		for i, r := range s.recs {
			if i == 0 && (!r.keyframe() || r.cycle > fossil) {
				t.Fatalf("after %s: front record of cycle %d (keyframe %v) cannot rebuild the fossil line %d", what, r.cycle, r.keyframe(), fossil)
			}
			if i > 0 && r.cycle != s.recs[i-1].cycle+1 {
				t.Fatalf("after %s: record of cycle %d follows that of cycle %d", what, r.cycle, s.recs[i-1].cycle)
			}
			if deltas++; r.keyframe() {
				deltas = 0
			} else if deltas >= s.keyframeEvery {
				t.Fatalf("after %s: record of cycle %d is delta %d of its chain, cadence %d", what, r.cycle, deltas, s.keyframeEvery)
			}
		}
		for c, m := range model {
			for i := range out {
				out[i] = !m.values[i] // restore must overwrite every net
			}
			got, gotCarry, ok := s.restore(c, out)
			if !ok || got != c || !slices.Equal(out, m.values) || !slices.Equal(gotCarry, m.carry) {
				t.Fatalf("after %s: restore(%d) = cycle %d ok=%v carry %v, want carry %v and the cycle's values", what, c, got, ok, gotCarry, m.carry)
			}
		}
	}
	for _, b := range data[2:] {
		op, arg := b&3, uint64(b>>2)
		switch {
		case op <= 1: // execute a cycle: checkpoint its start, then write
			free := [3]int{len(s.valuesFree), len(s.deltaFree), len(s.carryFree)}
			hits, misses := s.hits, s.misses
			_, saved := model[cycle]
			if took := s.take(cycle, values, carry, dirty); took == saved {
				t.Fatalf("take(%d) = %v with a record of it standing: %v", cycle, took, saved)
			} else if took {
				r, used := s.recs[len(s.recs)-1], [3]bool{}
				used[0], used[1], used[2] = r.values != nil, r.delta != nil, r.carry != nil
				var wantHits, wantMisses uint64
				for kind, u := range used {
					if u && free[kind] > 0 {
						wantHits++
					} else if u {
						wantMisses++
					}
				}
				if s.hits-hits != wantHits || s.misses-misses != wantMisses {
					t.Fatalf("take(%d): %d buffers reused and %d made with %v waiting released, want %d and %d",
						cycle, s.hits-hits, s.misses-misses, free, wantHits, wantMisses)
				}
				model[cycle] = mirror{slices.Clone(values), slices.Clone(carry)}
				dirty = dirty[:0]
			}
			carry = carry[:0]
			for i := uint64(0); i < arg%4; i++ {
				n := netlist.NetID((arg*7 + cycle*13 + i*29) % uint64(len(values)))
				values[n] = !values[n]
				if !slices.Contains(dirty, n) {
					dirty = append(dirty, n)
				}
				if op == 1 {
					carry = append(carry, n)
				}
			}
			cycle++
			check("take")
		case op == 2 && cycle > fossil: // roll back to an executed cycle
			tc := fossil + arg%(cycle-fossil)
			if got, c, ok := s.restore(tc, values); !ok || got != tc {
				t.Fatalf("restore(%d) = cycle %d ok=%v", tc, got, ok)
			} else {
				carry = append(carry[:0], c...)
			}
			s.truncateAfter(tc)
			for c := range model {
				if c > tc {
					delete(model, c)
				}
			}
			cycle, dirty = tc, dirty[:0]
			check("rollback")
		case op == 3: // fossil-collect up to a line at or below the LVT
			fossil += arg % (cycle - fossil + 1)
			s.trimBefore(fossil)
			for c := range model {
				if c < fossil {
					delete(model, c)
				}
			}
			check("trim")
		}
	}
}

// FuzzCPStore searches for a schedule of kernel calls after which the
// checkpoint store restores a state other than the one saved.
func FuzzCPStore(f *testing.F) {
	f.Add([]byte{7, 0})
	f.Add([]byte{2, 100, 0x04, 0x05, 0x08, 0x0d, 0x06, 0x04, 0x0b, 0x05, 0x04, 0x0a, 0x04})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 300)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(driveCPStore)
}
