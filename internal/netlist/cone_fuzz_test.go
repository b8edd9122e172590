package netlist_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// refFanIn is the from-scratch reference for ConeWalker.FanIn: a DFS with
// a fresh pair of netlist-sized bitsets per root.
func refFanIn(n *netlist.Netlist, root netlist.NetID, stopAtDFF bool) []bool {
	inCone := make([]bool, len(n.Gates))
	seenNet := make([]bool, len(n.Nets))
	stack := []netlist.NetID{root}
	for len(stack) > 0 {
		net := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seenNet[net] {
			continue
		}
		seenNet[net] = true
		d := n.Nets[net].Driver
		if d == netlist.NoGate || inCone[d] {
			continue
		}
		inCone[d] = true
		if stopAtDFF && n.Gates[d].Kind.Sequential() {
			continue
		}
		stack = append(stack, n.Gates[d].Inputs...)
	}
	return inCone
}

// FuzzConeWalk searches for a random hierarchical circuit on which one
// walker, reused over every net as a root and both stopAtDFF values, lists
// a gate twice or a gate set other than the from-scratch DFS's.
func FuzzConeWalk(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8), uint8(2), uint8(3), uint8(6), uint8(77))
	f.Add(int64(12), uint8(1), uint8(1), uint8(0), uint8(1), uint8(1), uint8(255))
	f.Add(int64(123), uint8(6), uint8(20), uint8(3), uint8(5), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, modules, gates, insts, top, pis, dff uint8) {
		c := gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes:        1 + int(modules%8),
			GatesPerModule:     1 + int(gates%32),
			InstancesPerModule: int(insts % 4),
			TopInstances:       1 + int(top%8),
			PIs:                1 + int(pis%8),
			Seed:               seed,
			DFFFraction:        float64(dff) / 255,
		})
		ed, err := c.Elaborate()
		if err != nil {
			t.Skip(err)
		}
		nl := ed.Netlist
		w := netlist.NewConeWalker(nl)
		listed := make([]bool, len(nl.Gates))
		for _, stop := range []bool{true, false} {
			for root := range nl.Nets {
				got := w.FanIn(netlist.NetID(root), stop)
				want := refFanIn(nl, netlist.NetID(root), stop)
				for _, g := range got {
					if listed[g] {
						t.Fatalf("root %s stop=%v: gate %s listed twice", nl.Nets[root].Name, stop, nl.Gates[g].Path)
					}
					listed[g] = true
					if !want[g] {
						t.Fatalf("root %s stop=%v: gate %s is not in the cone", nl.Nets[root].Name, stop, nl.Gates[g].Path)
					}
				}
				for g, in := range want {
					if in && !listed[g] {
						t.Fatalf("root %s stop=%v: gate %s missing from the cone", nl.Nets[root].Name, stop, nl.Gates[g].Path)
					}
				}
				for _, g := range got {
					listed[g] = false
				}
			}
		}
	})
}
