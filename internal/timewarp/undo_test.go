package timewarp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// driveUndoLog runs one schedule of the kernel's calls on an undo log —
// begin / note / takeSent / keep / unsent / end around every cycle, undo for
// a rollback, trim for a fossil collection — against a model that keeps one
// full mirror of the values and one list of standing sends per cycle. Every
// net the schedule writes is noted, so after every call each cycle from the
// fossil line up restores to the model's values, an undo reports the cycles
// it undid, the records are the cycles executed above the line, each holding
// what its last execution left standing, and a rollback target without a
// record is an error that changes nothing. Within a cycle, begin offers
// exactly what the cycle's last execution left standing, takeSent finds an
// event by net, and unsent returns the rest in send order.
func driveUndoLog(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	var (
		values = make([]bool, 16+int(data[0]%112))
		u      = &undoLog{mark: make([]uint64, len(values))}
		model  = map[uint64][]bool{}  // an entry at or above cycle is stale
		sent   = map[uint64][]event{} // standing sends by cycle, in send order
		cycle  uint64                 // the next to execute
		hi     uint64                 // one past the highest cycle ever executed
		fossil uint64
		seq    uint64
	)
	check := func(what string) {
		t.Helper()
		if u.fossil != fossil || u.top != int(cycle-fossil) || uint64(len(u.hist)) != hi-fossil {
			t.Fatalf("after %s: records of cycles %d to %d, %d of them current; want the %d executed from the fossil line %d up, %d current",
				what, u.fossil, u.fossil+uint64(len(u.hist)), u.top, hi-fossil, fossil, cycle-fossil)
		}
		for c := fossil; c < hi; c++ {
			if got := u.hist[c-fossil].sent; !slices.Equal(got, sent[c]) {
				t.Fatalf("after %s: cycle %d's record keeps sends %v, its last execution left %v standing", what, c, got, sent[c])
			}
		}
		// One cycle at a time, newest first, on a copy: undo moves top.
		cp, out := undoLog{hist: slices.Clone(u.hist), top: u.top, fossil: u.fossil}, slices.Clone(values)
		for c := cycle; c > fossil; {
			c--
			undone, err := cp.undo(c, out)
			if err != nil || !slices.Equal(out, model[c]) || undone != 1 {
				t.Fatalf("after %s: undo(%d) = %d cycles, error %v; want 1 and the cycle's values",
					what, c, undone, err)
			}
		}
	}
	refused := func(tc uint64) {
		t.Helper()
		before, records, top := slices.Clone(values), len(u.hist), u.top
		if _, err := u.undo(tc, values); err == nil {
			t.Fatalf("undo(%d) with records of cycles %d to %d: no error", tc, fossil, cycle)
		}
		if !slices.Equal(values, before) || len(u.hist) != records || u.top != top {
			t.Fatalf("a refused undo(%d) changed the state", tc)
		}
	}
	// 1,024 calls at most: every check walks all the records, and a schedule
	// of nothing but cycles would make the fuzzer wait on its square.
	for _, b := range data[1:min(len(data), 1025)] {
		op, arg := b&3, uint64(b>>2)
		switch {
		case op <= 1: // execute a cycle
			u.begin()
			model[cycle] = slices.Clone(values)
			prev := slices.Clone(sent[cycle])
			if got := u.unsent(); !slices.Equal(got, prev) {
				t.Fatalf("begin of cycle %d offers %v, its last execution left %v standing", cycle, got, prev)
			}
			for i := uint64(0); i < arg%7; i++ {
				// i/3 makes consecutive writes hit the same net: it toggles
				// two or three times inside the cycle.
				n := netlist.NetID((arg*7 + cycle*13 + i/3*29) % uint64(len(values)))
				values[n] = !values[n]
				u.note(n, values)
			}
			// Sends on some of eight nets, at most one each, in net order
			// or (odd arg) against it, so a match is not always the first
			// of the rest: taken back and let stand, taken back and
			// replaced by a new value, or sent for the first time.
			var kept []event
			mask := uint8(arg*37 + cycle*11)
			for j := 0; j < 8; j++ {
				n := netlist.NetID(j)
				if arg&1 == 1 {
					n = netlist.NetID(7 - j)
				}
				if mask>>j&1 == 0 {
					continue
				}
				at := slices.IndexFunc(prev, func(e event) bool { return e.Net == n })
				s, ok := u.takeSent(n)
				if ok != (at >= 0) || ok && s != prev[at] {
					t.Fatalf("cycle %d: takeSent(%d) = %+v, %v; its last execution left %v standing", cycle, n, s, ok, prev)
				}
				if ok {
					prev = slices.Delete(prev, at, at+1)
				}
				if ok && (arg>>1+uint64(j))%3 != 0 {
					u.keep(s)
					kept = append(kept, s)
					continue
				}
				seq++
				e := event{T: cycle, Net: n, Val: seq&1 == 0, Seq: seq}
				u.keep(e)
				kept = append(kept, e)
			}
			if got := u.unsent(); !slices.Equal(got, prev) {
				t.Fatalf("cycle %d: unsent %v, want %v, in send order", cycle, got, prev)
			}
			u.end()
			sent[cycle] = kept
			cycle++
			hi = max(hi, cycle)
			check("cycle")
		case op == 2 && arg%8 == 7: // a target without a record
			refused(cycle + arg>>3)
			if fossil > 0 {
				refused(fossil - 1)
			}
		case op == 2 && cycle > fossil: // roll back to an executed cycle
			tc := fossil + arg%(cycle-fossil)
			undone, err := u.undo(tc, values)
			if err != nil || undone != cycle-tc || !slices.Equal(values, model[tc]) {
				t.Fatalf("undo(%d) from cycle %d = %d cycles, error %v; want %d and the cycle's values",
					tc, cycle, undone, err, cycle-tc)
			}
			cycle = tc
			check("rollback")
		case op == 3: // fossil-collect up to a line at or below the LVT
			line := fossil + arg%(cycle-fossil+1)
			for ; fossil < line; fossil++ {
				delete(sent, fossil)
			}
			u.trim(fossil)
			check("trim")
		}
	}
}

// FuzzUndoLog searches for a schedule of kernel calls after which the undo
// log restores a state other than the one the cycle started in.
func FuzzUndoLog(f *testing.F) {
	f.Add([]byte{0})
	// Three cycles, a rollback to cycle 1 and with nothing executed in
	// between one to cycle 0, two cycles, a trim to cycle 1, a rollback onto
	// that line, two refused targets, a cycle.
	f.Add([]byte{100, 0x15, 0x0d, 0x19, 0x06, 0x02, 0x14, 0x0d, 0x07, 0x02, 0x1e, 0x3e, 0x15})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 300)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(driveUndoLog)
}
