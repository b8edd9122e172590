package timewarp

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// driveUndoLog runs one schedule of the kernel's calls on an undo log —
// begin / note / end around every cycle, undo for a rollback, trim for a
// fossil collection — against a model that keeps one full mirror per cycle.
// Every net the schedule writes is noted, so after every call each cycle
// from the fossil line up restores to the model's values with the model's
// evaluations undone, the records are the executed cycles above the line,
// and a rollback target without a record is an error that changes nothing.
func driveUndoLog(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	type mirror struct {
		values []bool
		evals  uint64
	}
	var (
		values = make([]bool, 16+int(data[0]%112))
		u      = &undoLog{mark: make([]uint64, len(values))}
		model  = map[uint64]mirror{} // an entry at or above cycle is stale
		cycle  uint64                // the next to execute
		fossil uint64
	)
	check := func(what string) {
		t.Helper()
		if u.fossil != fossil || uint64(len(u.hist)) != cycle-fossil {
			t.Fatalf("after %s: %d records from cycle %d, want the %d executed from the fossil line %d up",
				what, len(u.hist), u.fossil, cycle-fossil, fossil)
		}
		// One cycle at a time, newest first, on a copy: undo reads the
		// records and truncates the slice.
		cp, out := undoLog{hist: slices.Clone(u.hist), fossil: u.fossil}, slices.Clone(values)
		for c := cycle; c > fossil; {
			c--
			m := model[c]
			gotEvals, err := cp.undo(c, out)
			if err != nil || !slices.Equal(out, m.values) || gotEvals != m.evals {
				t.Fatalf("after %s: undo(%d) = %d evaluations, error %v; want %d and the cycle's values",
					what, c, gotEvals, err, m.evals)
			}
		}
	}
	refused := func(tc uint64) {
		t.Helper()
		before, records := slices.Clone(values), len(u.hist)
		if _, err := u.undo(tc, values); err == nil {
			t.Fatalf("undo(%d) with records of cycles %d to %d: no error", tc, fossil, cycle)
		}
		if !slices.Equal(values, before) || len(u.hist) != records {
			t.Fatalf("a refused undo(%d) changed the state", tc)
		}
	}
	// 1,024 calls at most: every check walks all the records, and a schedule
	// of nothing but cycles would make the fuzzer wait on its square.
	for _, b := range data[1:min(len(data), 1025)] {
		op, arg := b&3, uint64(b>>2)
		switch {
		case op <= 1: // execute a cycle
			evals := arg*3 + cycle%5
			u.begin()
			model[cycle] = mirror{slices.Clone(values), evals}
			for i := uint64(0); i < arg%7; i++ {
				// i/3 makes consecutive writes hit the same net: it toggles
				// two or three times inside the cycle.
				n := netlist.NetID((arg*7 + cycle*13 + i/3*29) % uint64(len(values)))
				values[n] = !values[n]
				u.note(n, values)
			}
			u.end(evals)
			cycle++
			check("cycle")
		case op == 2 && arg%8 == 7: // a target without a record
			refused(cycle + arg>>3)
			if fossil > 0 {
				refused(fossil - 1)
			}
		case op == 2 && cycle > fossil: // roll back to an executed cycle
			tc := fossil + arg%(cycle-fossil)
			want := uint64(0)
			for c := tc; c < cycle; c++ {
				want += model[c].evals
			}
			evals, err := u.undo(tc, values)
			if err != nil || evals != want || !slices.Equal(values, model[tc].values) {
				t.Fatalf("undo(%d) from cycle %d = %d evaluations, error %v; want %d and the cycle's values",
					tc, cycle, evals, err, want)
			}
			cycle = tc
			check("rollback")
		case op == 3: // fossil-collect up to a line at or below the LVT
			fossil += arg % (cycle - fossil + 1)
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
