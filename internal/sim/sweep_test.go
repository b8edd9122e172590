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
// hold the named nets, in order.
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
