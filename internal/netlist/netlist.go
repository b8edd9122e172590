// Package netlist defines the flattened gate-level netlist produced by
// elaboration: primitive gates connected by single-bit nets, with primary
// inputs/outputs and constant nets. It also provides levelization and
// fan-in cone computation used by the cone partitioner and the simulators.
package netlist

import (
	"fmt"
	"slices"

	"repro/internal/verilog"
)

// GateID indexes Netlist.Gates.
type GateID int32

// NetID indexes Netlist.Nets.
type NetID int32

// NoGate marks the absence of a driver (primary input or constant net).
const NoGate GateID = -1

// Gate is one primitive gate instance in the flat netlist.
type Gate struct {
	ID     GateID
	Kind   verilog.GateKind
	Path   string  // full hierarchical instance path, e.g. "top.u1.fa0.x1"
	Inputs []NetID // for dff: Inputs[0] = d, Inputs[1] = clk
	Output NetID
	// Owner is the index (into elab.Design.Instances) of the module
	// instance that directly contains this gate. 0 is the top instance.
	Owner int32
}

// Net is one single-bit net.
type Net struct {
	ID     NetID
	Name   string // representative hierarchical name, e.g. "top.u1.carry[2]"
	Driver GateID // NoGate for primary inputs and constants
	Sinks  []GateID
	IsPI   bool
	IsPO   bool
	// Const is -1 for ordinary nets, 0 or 1 for the constant nets.
	Const int8
}

// Netlist is the flattened design.
type Netlist struct {
	Gates []Gate
	Nets  []Net
	PIs   []NetID // primary inputs in top-module port order (bit-expanded)
	POs   []NetID // primary outputs likewise
}

// NumGates returns the number of gates.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// Stats summarizes a netlist for reporting.
type Stats struct {
	Gates, Nets, PIs, POs, DFFs int
	Combinational               int
}

// Stats computes summary statistics.
func (n *Netlist) Stats() Stats {
	s := Stats{Gates: len(n.Gates), Nets: len(n.Nets), PIs: len(n.PIs), POs: len(n.POs)}
	for i := range n.Gates {
		if n.Gates[i].Kind.Sequential() {
			s.DFFs++
		} else {
			s.Combinational++
		}
	}
	return s
}

// IsClockNet reports whether the net feeds only DFF clock pins (input
// index 1). Clock nets are distributed as a global synchronous tick rather
// than as discrete events, so the simulators and the hypergraph model treat
// them as free: they carry no communication.
func (n *Netlist) IsClockNet(id NetID) bool {
	net := &n.Nets[id]
	if len(net.Sinks) == 0 {
		return false
	}
	for _, s := range net.Sinks {
		g := &n.Gates[s]
		if !g.Kind.Sequential() {
			return false
		}
		// The net must reach the gate only through the clk pin.
		for pin, in := range g.Inputs {
			if in == id && pin != 1 {
				return false
			}
		}
	}
	return true
}

// Validate performs structural consistency checks: every gate input/output
// net exists, drivers and sinks are mutually consistent, and no net has two
// drivers. It is used by tests and after elaboration.
func (n *Netlist) Validate() error {
	for gi := range n.Gates {
		g := &n.Gates[gi]
		if g.ID != GateID(gi) {
			return fmt.Errorf("netlist: gate %d has ID %d", gi, g.ID)
		}
		if g.Output < 0 || int(g.Output) >= len(n.Nets) {
			return fmt.Errorf("netlist: gate %s output net %d out of range", g.Path, g.Output)
		}
		if n.Nets[g.Output].Driver != g.ID {
			return fmt.Errorf("netlist: gate %s not recorded as driver of its output net %s",
				g.Path, n.Nets[g.Output].Name)
		}
		for _, in := range g.Inputs {
			if in < 0 || int(in) >= len(n.Nets) {
				return fmt.Errorf("netlist: gate %s input net %d out of range", g.Path, in)
			}
		}
	}
	// listed[g] == ni+1 once net ni's sinks have shown gate g; unlisted is
	// the distinct (gate, input net) pairs less the distinct (net, sink)
	// pairs, every one of which the walk checks is a gate reading the net.
	listed := make([]int32, len(n.Gates))
	unlisted := 0
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if net.ID != NetID(ni) {
			return fmt.Errorf("netlist: net %d has ID %d", ni, net.ID)
		}
		if net.Driver != NoGate {
			if int(net.Driver) >= len(n.Gates) {
				return fmt.Errorf("netlist: net %s driver out of range", net.Name)
			}
			if n.Gates[net.Driver].Output != net.ID {
				return fmt.Errorf("netlist: net %s driver mismatch", net.Name)
			}
		}
		for _, s := range net.Sinks {
			if s < 0 || int(s) >= len(n.Gates) {
				return fmt.Errorf("netlist: net %s sink out of range", net.Name)
			}
			if listed[s] == int32(ni)+1 {
				continue // listed once per pin that reads it
			}
			listed[s] = int32(ni) + 1
			if !slices.Contains(n.Gates[s].Inputs, net.ID) {
				return fmt.Errorf("netlist: net %s lists sink %s that does not read it",
					net.Name, n.Gates[s].Path)
			}
			unlisted--
		}
	}
	// Cross-check: every gate input appears in the net's sink list. read[ni]
	// == gi+1 once gate gi has been counted as a reader of net ni.
	read := make([]int32, len(n.Nets))
	for gi := range n.Gates {
		for _, in := range n.Gates[gi].Inputs {
			if read[in] != int32(gi)+1 {
				read[in] = int32(gi) + 1
				unlisted++
			}
		}
	}
	for gi := 0; unlisted != 0 && gi < len(n.Gates); gi++ {
		for _, in := range n.Gates[gi].Inputs {
			if !slices.Contains(n.Nets[in].Sinks, GateID(gi)) {
				return fmt.Errorf("netlist: gate %s reads net %s but is not in its sinks",
					n.Gates[gi].Path, n.Nets[in].Name)
			}
		}
	}
	return nil
}
