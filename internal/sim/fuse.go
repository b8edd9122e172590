package sim

import (
	"slices"

	"repro/internal/netlist"
)

// FusedGate is a fanout-free cone of tabulated gates compiled into one
// record: up to four distinct input nets, the cone's output net and its
// 16-bit truth table. Bit i of TT is the output when In[j] holds bit j of
// i. N counts the distinct inputs; the slots from N up repeat In[0], and
// the table does not depend on them. A wide gate (more than two inputs)
// is a record of its own with N == 0 and its netlist.GateID in In[0], and
// EvalGate evaluates it from there. Settle evaluates these records, which
// is what the Time Warp kernel's clusters run (DESIGN §20).
type FusedGate struct {
	In  [4]netlist.NetID
	Out netlist.NetID
	TT  uint16
	N   uint8
}

// Eval computes a tabulated record's output (N > 0) from the current net
// values: four loads and a shift, with no branch.
func (f *FusedGate) Eval(values []bool) bool {
	i := b2u(values[f.In[0]]) | b2u(values[f.In[1]])<<1 | b2u(values[f.In[2]])<<2 | b2u(values[f.In[3]])<<3
	return f.TT>>i&1 != 0
}

// Settle evaluates every record of tab once, in table order, writing each
// output into values at once: over a table Fuse built from a topological
// one it settles every record's output to the unique state its inputs
// imply. A wide record reads its gate from nl.
func Settle(nl *netlist.Netlist, tab []FusedGate, values []bool) {
	for i := range tab {
		f := &tab[i]
		if f.N != 0 {
			values[f.Out] = f.Eval(values)
		} else {
			values[f.Out] = EvalGate(&nl.Gates[f.In[0]], values)
		}
	}
}

// Fuse compiles tab, a topological table of TruthGates (a Sweep's, or an
// AppendSlice of it), into FusedGates. It walks tab backwards and folds a
// record into the one record that reads its output when that output is not
// live, when that reader is the output's only reader in the table, and when
// the reader keeps at most four distinct inputs. So only the outputs of
// the records Fuse returns are written by Settle; a folded record's output
// is never written again, and live must report true for every net anything
// other than tab reads or observes. A wide gate is never folded and nothing
// folds into it. Every bit of a fused table is read from the folded
// TruthGates' tables on the 16 input combinations, so it is EvalGate's
// answer by construction, as Truth's bits are. The result is in topological
// order.
func Fuse(nl *netlist.Netlist, tab []TruthGate, live func(netlist.NetID) bool) []FusedGate {
	// reader[n] is r+1 while out[r] is the one record reading net n, 0
	// while no record reads it, and shared once two do or a wide gate does.
	const shared = -1
	reader := make([]int32, len(nl.Nets))
	claim := func(n netlist.NetID, r int32) {
		switch reader[n] {
		case 0:
			reader[n] = r + 1
		case r + 1:
		default:
			reader[n] = shared
		}
	}
	out := make([]FusedGate, 0, len(tab))
	for i := len(tab) - 1; i >= 0; i-- {
		t := &tab[i]
		if t.TT == Wide {
			out = append(out, FusedGate{In: [4]netlist.NetID{t.A}, Out: t.Out})
			for _, in := range nl.Gates[t.A].Inputs {
				reader[in] = shared
			}
			continue
		}
		r := reader[t.Out] - 1
		if r < 0 || live(t.Out) || !out[r].fold(t) {
			r = int32(len(out))
			out = append(out, leaf(t))
		}
		claim(t.A, r)
		claim(t.B, r)
	}
	slices.Reverse(out)
	return out
}

// inputs are the 16-bit tables of the four record inputs themselves: bit i
// of inputs[j] is bit j of i.
var inputs = [4]uint16{0xaaaa, 0xcccc, 0xf0f0, 0xff00}

// leaf returns the record of tabulated gate t alone.
func leaf(t *TruthGate) FusedGate {
	f := FusedGate{In: [4]netlist.NetID{t.A, t.B, t.A, t.A}, Out: t.Out, N: 2}
	if t.A == t.B {
		f.N = 1
	}
	f.TT = compose(uint16(t.TT)*0x1111, [4]uint16{inputs[0], inputs[f.N-1]})
	return f
}

// fold replaces input t.Out of f by t, the tabulated gate driving it, when
// the inputs that leaves number at most four, and reports whether it did.
// The new table is f's composed with t's, both read bit by bit.
func (f *FusedGate) fold(t *TruthGate) bool {
	var in [4]netlist.NetID
	var x [4]uint16 // f's input j as a table over the new inputs
	n := uint8(0)
	at := func(v netlist.NetID) (uint16, bool) {
		for k := range n {
			if in[k] == v {
				return inputs[k], true
			}
		}
		if n == 4 {
			return 0, false
		}
		in[n] = v
		n++
		return inputs[n-1], true
	}
	out := 0
	for j, v := range f.In[:f.N] {
		if v == t.Out {
			out = j
		} else {
			x[j], _ = at(v)
		}
	}
	a, okA := at(t.A)
	b, okB := at(t.B)
	if !okA || !okB {
		return false
	}
	x[out] = compose(uint16(t.TT)*0x1111, [4]uint16{a, b})
	for k := n; k < 4; k++ {
		in[k] = in[0]
	}
	f.In, f.N, f.TT = in, n, compose(f.TT, x)
	return true
}

// compose returns the table of the function whose table is tt applied to
// inputs given as tables themselves: bit i of the result is bit m of tt,
// where bit j of m is bit i of x[j]. It is a tree of multiplexers over
// whole tables, x[0] choosing between pairs of tt's bits, x[1] between
// pairs of those, and so on, so each of tt's 16 bits is read once.
func compose(tt uint16, x [4]uint16) uint16 {
	// by x[0] alone: the function of x[0] that bits 2k, 2k+1 of tt give.
	lo := [4]uint16{0, ^x[0], x[0], 0xffff}
	var l [8]uint16
	for k := range l {
		l[k] = lo[tt>>(2*k)&3]
	}
	mux := func(s, a, b uint16) uint16 { return a&^s | b&s }
	x1, x2 := x[1], x[2]
	return mux(x[3],
		mux(x2, mux(x1, l[0], l[1]), mux(x1, l[2], l[3])),
		mux(x2, mux(x1, l[4], l[5]), mux(x1, l[6], l[7])))
}
