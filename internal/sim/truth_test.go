package sim

import (
	"fmt"
	"testing"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// TestTruthMatchesEvalGate holds every table to EvalGate: each
// combinational kind at arity 1 and 2 (not and buf are unary), on every
// input combination, read both from the table and through a compiled
// TruthGate. A one-input gate reads its input as both table inputs. Wider
// gates and flip-flops have no table, and compile to the wide record.
func TestTruthMatchesEvalGate(t *testing.T) {
	nl := &netlist.Netlist{}
	for kind := verilog.GateAnd; kind <= verilog.GateDff; kind++ {
		for arity := 1; arity <= 3; arity++ {
			g := netlist.Gate{ID: netlist.GateID(len(nl.Gates)), Kind: kind, Output: 2}
			for in := range arity {
				g.Inputs = append(g.Inputs, netlist.NetID(in))
			}
			nl.Gates = append(nl.Gates, g)
		}
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		name := fmt.Sprintf("%v/%d", g.Kind, len(g.Inputs))
		unary := g.Kind == verilog.GateNot || g.Kind == verilog.GateBuf
		if unary && len(g.Inputs) > 1 {
			continue
		}
		tt, ok := Truth(g)
		rec := CompileGate(nl, g.ID)
		if g.Kind.Sequential() || len(g.Inputs) > 2 {
			if ok || rec != (TruthGate{A: netlist.NetID(g.ID), Out: g.Output, TT: Wide}) {
				t.Errorf("%s: Truth ok %v, compiled %+v; want no table and the wide record", name, ok, rec)
			}
			continue
		}
		if !ok || rec.TT != tt || rec.A != 0 || rec.B != g.Inputs[len(g.Inputs)-1] || rec.Out != g.Output {
			t.Fatalf("%s: Truth (%04b, %v), compiled %+v", name, tt, ok, rec)
		}
		for combo := range 4 {
			values := []bool{combo&1 != 0, combo&2 != 0}
			if len(g.Inputs) == 1 {
				values[1] = values[0]
			}
			want, idx := EvalGate(g, values), b2u(values[0])|b2u(values[1])<<1
			if got := tt>>idx&1 != 0; got != want {
				t.Errorf("%s inputs %02b: table bit %v, EvalGate %v", name, combo, got, want)
			}
			if got := rec.Eval(values); got != want {
				t.Errorf("%s inputs %02b: TruthGate.Eval %v, EvalGate %v", name, combo, got, want)
			}
		}
	}
}
