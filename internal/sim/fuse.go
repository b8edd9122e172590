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
// order, and its capacity is its length: a first walk decides every fold on
// the records' inputs alone and counts the records, a second makes the
// same decisions with the tables into a slice of exactly that size.
func Fuse(nl *netlist.Netlist, tab []TruthGate, live func(netlist.NetID) bool) []FusedGate {
	w := fuser{reader: make([]int32, len(nl.Nets)), cones: make([][4]netlist.NetID, 0, len(tab))}
	out := make([]FusedGate, 0, w.walk(nl, tab, live, func(int, int32) {}))
	w.walk(nl, tab, live, func(i int, r int32) {
		switch t := &tab[i]; {
		case t.TT == Wide:
			out = append(out, FusedGate{In: [4]netlist.NetID{t.A}, Out: t.Out})
		case r < 0:
			out = append(out, leaf(t))
		default:
			out[r].fold(t)
		}
	})
	slices.Reverse(out)
	return out
}

// fuser is the state of Fuse's walk: who reads each net, and each
// record's inputs.
type fuser struct {
	// reader[n] is r+1 while record r is the one record reading net n, 0
	// while no record reads it, and shared once two do or a wide gate does.
	reader []int32
	cones  [][4]netlist.NetID // record r's inputs, as FusedGate.In
}

const shared = -1

// walk runs Fuse's backward walk over tab, keeping of each record only its
// inputs, and tells emit, for every tab[i] in walk order, whether it starts
// a record (r < 0) or folds into record r. It returns how many records the
// walk made.
func (w *fuser) walk(nl *netlist.Netlist, tab []TruthGate, live func(netlist.NetID) bool, emit func(i int, r int32)) int {
	clear(w.reader)
	w.cones = w.cones[:0]
	claim := func(n netlist.NetID, r int32) {
		switch w.reader[n] {
		case 0:
			w.reader[n] = r + 1
		case r + 1:
		default:
			w.reader[n] = shared
		}
	}
	for i := len(tab) - 1; i >= 0; i-- {
		t := &tab[i]
		if t.TT == Wide {
			w.cones = append(w.cones, [4]netlist.NetID{})
			emit(i, -1)
			for _, in := range nl.Gates[t.A].Inputs {
				w.reader[in] = shared
			}
			continue
		}
		r := w.reader[t.Out] - 1
		if r >= 0 && !live(t.Out) {
			if in, ok := merge(w.cones[r], t); ok {
				w.cones[r] = in
				emit(i, r)
			} else {
				r = -1
			}
		} else {
			r = -1
		}
		if r < 0 {
			r = int32(len(w.cones))
			w.cones = append(w.cones, [4]netlist.NetID{t.A, t.B, t.A, t.A})
			emit(i, -1)
		}
		claim(t.A, r)
		claim(t.B, r)
	}
	return len(w.cones)
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

// width is how many distinct inputs in holds, In[:N] of a FusedGate: the
// slots from N up repeat In[0].
func width(in [4]netlist.NetID) uint8 {
	n := uint8(1)
	for _, v := range in[1:] {
		if v != in[0] {
			n++
		}
	}
	return n
}

// merge returns the inputs of a record with inputs in once its input t.Out
// is replaced by t, the tabulated gate driving it: in's others in order,
// then t.A and t.B, each once, the slots past them repeating the first. It
// reports false when they are more than four.
func merge(in [4]netlist.NetID, t *TruthGate) ([4]netlist.NetID, bool) {
	var m [4]netlist.NetID
	n := 0
	add := func(v netlist.NetID) bool {
		if slices.Contains(m[:n], v) {
			return true
		}
		if n == 4 {
			return false
		}
		m[n] = v
		n++
		return true
	}
	for _, v := range in[:width(in)] {
		if v != t.Out {
			add(v) // at most three: in holds t.Out too
		}
	}
	if !add(t.A) || !add(t.B) {
		return m, false
	}
	for k := n; k < 4; k++ {
		m[k] = m[0]
	}
	return m, true
}

// fold replaces input t.Out of f by t, the tabulated gate driving it; the
// walk has checked that the inputs that leaves number at most four (merge).
// The new table is f's composed with t's, both read bit by bit.
func (f *FusedGate) fold(t *TruthGate) {
	in, _ := merge(f.In, t)
	n := width(in)
	at := func(v netlist.NetID) uint16 { return inputs[slices.Index(in[:n], v)] }
	var x [4]uint16 // f's input j as a table over the new inputs
	for j, v := range f.In[:f.N] {
		if v == t.Out {
			x[j] = compose(uint16(t.TT)*0x1111, [4]uint16{at(t.A), at(t.B)})
		} else {
			x[j] = at(v)
		}
	}
	f.In, f.N, f.TT = in, n, compose(f.TT, x)
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
