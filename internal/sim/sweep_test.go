package sim

import (
	"testing"

	"repro/internal/gen"
)

// TestMachineWiring holds NewMachine's slot tables to the netlist, over the
// whole table and over a slice of it (every gate whose id is not a multiple
// of three, flip-flops included): flip-flop i of the kept ones, in gate
// order, has its q in slot i and latches the slot holding its d; the
// stimulus slot of vector position i holds Sweep.PIs[i]; the slots returned
// hold the named nets, in order. Both machines have few slots, so each
// keeps one table, its narrow records, and Slots is a view of the array
// Cycle settles.
func TestMachineWiring(t *testing.T) {
	for _, c := range []*gen.Circuit{gen.ViterbiSoC(gen.DefaultSoC), gen.WideGates(60, 1)} {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		sw, err := NewSweep(nl)
		if err != nil {
			t.Fatal(err)
		}
		slice := make([]bool, len(nl.Gates))
		for g := range slice {
			slice[g] = g%3 != 0
		}
		for _, keep := range [][]bool{nil, slice} {
			label := c.Name + " whole table"
			if keep != nil {
				label = c.Name + " slice"
			}
			m, slots := NewMachine(sw, keep, nl.POs)
			if m.Tab != nil || m.narrow == nil || m.fixed == nil || &m.Slots[0] != &m.fixed[0] || len(m.Slots) != len(m.Nets) {
				t.Fatalf("%s: %d slots: an int32 table %v, narrow records %v, Slots a view of the fixed array %v",
					label, len(m.Nets), m.Tab != nil, m.narrow != nil, m.fixed != nil && &m.Slots[0] == &m.fixed[0])
			}
			var ffs []flipFlop
			for _, f := range sw.ffs {
				if keep == nil || keep[f.gate] {
					ffs = append(ffs, f)
				}
			}
			if len(m.latchD) != len(ffs) || len(m.next) != len(ffs) {
				t.Fatalf("%s: %d latch slots, room for %d d's, want %d flip-flops", label, len(m.latchD), len(m.next), len(ffs))
			}
			for i, f := range ffs {
				if q, d := m.Nets[i], m.Nets[m.latchD[i]]; q != f.q || d != f.d {
					t.Fatalf("%s: flip-flop %d (%s) latches %d (slot %d) into %d (slot %d); netlist: d %d, q %d",
						label, i, nl.Gates[f.gate].Path, d, m.latchD[i], q, i, f.d, f.q)
				}
			}
			if len(m.stim) != len(sw.PIs) || len(m.vec) != len(sw.PIs) {
				t.Fatalf("%s: %d stimulus slots, a vector of %d, want %d inputs", label, len(m.stim), len(m.vec), len(sw.PIs))
			}
			for i, pi := range sw.PIs {
				if n := m.Nets[m.stim[i]]; n != pi {
					t.Fatalf("%s: vector position %d writes slot %d (%d), want input %s (%d)", label, i, m.stim[i], n, nl.Nets[pi].Name, pi)
				}
			}
			if len(slots) != len(nl.POs) {
				t.Fatalf("%s: %d named slots for %d nets", label, len(slots), len(nl.POs))
			}
			for i, po := range nl.POs {
				if n := m.Nets[slots[i]]; n != po {
					t.Fatalf("%s: named net %d (%s) in slot %d, which holds %d", label, i, nl.Nets[po].Name, slots[i], n)
				}
			}
		}
	}
}

// TestWideMachineSettles holds the wide path, which no benchmark workload
// reaches, to the event-driven reference: a machine over more than
// narrowSlots slots keeps no narrow records and settles by Settle, and
// Levelized, which runs that machine, records what Record does over a few
// cycles on every state net and on every other gate's output. Naming those
// outputs keeps them live: most of a random wide circuit is read by
// nothing that a state net depends on, and Fuse drops it.
func TestWideMachineSettles(t *testing.T) {
	ed, err := gen.WideGates(58_000, 2).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	sw, err := NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	state := StateNets(nl)
	for g := range nl.Gates {
		if g%2 == 0 && !nl.Gates[g].Kind.Sequential() {
			state = append(state, nl.Gates[g].Output)
		}
	}
	m, _ := NewMachine(sw, nil, state) // the machine Levelized runs
	t.Logf("%d gates, %d records, %d slots", len(nl.Gates), len(m.Tab), len(m.Nets))
	if len(m.Nets) <= narrowSlots || m.narrow != nil || m.fixed != nil {
		t.Fatalf("%d slots: narrow records %v, a fixed array %v; want more than %d slots and neither",
			len(m.Nets), m.narrow != nil, m.fixed != nil, narrowSlots)
	}
	const cycles = 6
	src := RandomVectors{Seed: 3}
	want, err := Record(nl, src, cycles, state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Levelized(nl, src, cycles, state)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range state {
		for c := range want[n] {
			if got[n][c] != want[n][c] {
				t.Fatalf("net %s cycle %d: Levelized %v, Record %v", nl.Nets[n].Name, c, got[n][c], want[n][c])
			}
		}
	}
}
