package sim

import "repro/internal/netlist"

// Wide is the TT of a TruthGate whose gate has more than two inputs: above
// every 4-bit table, so a TT below it is a table.
const Wide = 1 << 4

// Truth returns the 4-bit truth table of combinational gate g: bit a|b<<1
// of tt is g's output when its first input is a and its second b, and a
// one-input gate reads its input as both. Each bit is EvalGate's own answer
// on that input combination, so the table agrees with EvalGate by
// construction. A flip-flop, or a gate of three or more inputs, has no
// table: ok is false.
func Truth(g *netlist.Gate) (tt uint8, ok bool) {
	if g.Kind.Sequential() || len(g.Inputs) == 0 || len(g.Inputs) > 2 {
		return 0, false
	}
	probe := netlist.Gate{Kind: g.Kind, Inputs: []netlist.NetID{0, 1}[:len(g.Inputs)]}
	for i := range 4 {
		if EvalGate(&probe, []bool{i&1 != 0, i&2 != 0}) {
			tt |= 1 << i
		}
	}
	return tt, true
}

// TruthGate is a combinational gate compiled for evaluation: its inputs A
// and B (a one-input gate has B == A), its output and its truth table. A
// gate of more than two inputs has TT == Wide, and A holds its
// netlist.GateID instead of an input: EvalGate evaluates it from there.
// The wave bank's scout (settle) and the Time Warp kernel's cluster
// programs both evaluate from these records.
type TruthGate struct {
	A, B, Out netlist.NetID
	TT        uint8
}

// CompileGate returns combinational gate gi of nl as a TruthGate.
func CompileGate(nl *netlist.Netlist, gi netlist.GateID) TruthGate {
	g := &nl.Gates[gi]
	tt, ok := Truth(g)
	if !ok {
		return TruthGate{A: netlist.NetID(gi), Out: g.Output, TT: Wide}
	}
	return TruthGate{A: g.Inputs[0], B: g.Inputs[len(g.Inputs)-1], Out: g.Output, TT: tt}
}

// Eval computes a tabulated gate's output (TT < Wide) from the current net
// values: two loads and a shift, with no branch. It is small enough to
// inline into a hot loop, which tests TT itself and hands a wide gate,
// nl.Gates[A], to EvalGate.
func (t *TruthGate) Eval(values []bool) bool {
	return t.TT>>(b2u(values[t.A])|b2u(values[t.B])<<1)&1 != 0
}

// b2u is 1 for true and 0 for false; it compiles to a zero-extending load,
// without a branch.
func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}
