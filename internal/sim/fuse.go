package sim

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// FusedGate is one record of a Program: a cone of combinational gates
// compiled into its input slots and its 16-bit truth table; a gate whose
// output several records read may lie in each of their cones. Bit i of
// TT is the output when slot In[j] holds bit j of i. The inputs past the
// cone's distinct ones repeat In[0], and the table does not depend on
// them. Record i of a program writes slot Base+i; it carries no output.
type FusedGate struct {
	In [4]int32
	TT uint16
}

// Program is a slice of a sweep table compiled over a dense slot array,
// which is the state it settles. The inputs take the slots below Base: the
// nets its caller named to Fuse that the table does not drive first, in
// the order named, then the table's other inputs. Record i writes slot
// Base+i, so the records write their outputs in order. Settle evaluates
// it; a Machine's cycle is one Settle of its Program between the stimulus
// and the latch (DESIGN §20).
type Program struct {
	Tab  []FusedGate
	Base int32
	// Nets[s] is the net slot s holds, or NoNet for a slot that holds a
	// link of a gate of more than four inputs.
	Nets []netlist.NetID
}

// NoNet is Program.Nets' entry for a slot that holds no net.
const NoNet netlist.NetID = -1

// Load copies into every slot that holds a net that net's value in values,
// a state indexed by net (a power-on state, say); a chain link's slot is
// left alone.
func (p *Program) Load(slots, values []bool) {
	for s, n := range p.Nets {
		if n != NoNet {
			slots[s] = values[n]
		}
	}
}

// Settle evaluates every record of p once, in table order, writing each
// output at once: over a program Fuse built from a topological table it
// settles every record's output to the unique state its inputs imply.
// Each record is four loads, three address additions (the sum of the
// scaled inputs), a bit test and one store; each of the four loads is
// bounds-checked, since an int32 slot may lie past slots. It is the
// reference loop, and the one a Machine runs over more than narrowSlots
// slots; a smaller Machine settles its narrow records (settleNarrow).
func Settle(p *Program, slots []bool) {
	tab := p.Tab
	out := slots[p.Base:][:len(tab)]
	for i := range tab {
		r := &tab[i]
		x := uint(b2u(slots[r.In[0]])) + 2*uint(b2u(slots[r.In[1]])) + 4*uint(b2u(slots[r.In[2]])) + 8*uint(b2u(slots[r.In[3]]))
		out[i] = uint(r.TT)>>(x&15)&1 != 0 // x < 16: the mask spares the shift its range check
	}
}

// narrowSlots is the most slots a program may have for a Machine to settle
// it from narrowGate records over one array of exactly that many slots.
const narrowSlots = 1 << 16

// narrowGate is a FusedGate of a program of at most narrowSlots slots, its
// input slots in 16 bits: 10 bytes instead of 20, so twice the records
// share a cache line.
type narrowGate struct {
	In [4]uint16
	TT uint16
}

// narrow returns tab's records as narrowGates; every slot they read must
// be below narrowSlots.
func narrow(tab []FusedGate) []narrowGate {
	n := make([]narrowGate, len(tab))
	for i, r := range tab {
		n[i] = narrowGate{In: [4]uint16{uint16(r.In[0]), uint16(r.In[1]), uint16(r.In[2]), uint16(r.In[3])}, TT: r.TT}
	}
	return n
}

// settleNarrow is Settle over a program's narrow records, with the output
// of record i at slot base+i: the same loads, sum, bit test and store, and
// no bounds check, since a uint16 cannot index past a narrowSlots array.
func settleNarrow(tab []narrowGate, base int32, slots *[narrowSlots]bool) {
	out := slots[base:][:len(tab)]
	for i := range tab {
		r := &tab[i]
		x := uint(b2u(slots[r.In[0]])) + 2*uint(b2u(slots[r.In[1]])) + 4*uint(b2u(slots[r.In[2]])) + 8*uint(b2u(slots[r.In[3]]))
		out[i] = uint(r.TT)>>(x&15)&1 != 0
	}
}

// Fuse compiles tab, a topological table of TruthGates (a Sweep's, or an
// AppendSlice of it), into a Program, and returns the slot of each net of
// named: the nets its caller reads or writes outside the table. A gate of
// three or four inputs is a table like any other, and a wider one a chain
// of them, each link folding up to four of its inputs with the gate's
// associative operator (DESIGN §20).
//
// Fuse walks the gates backwards and folds one into the one record that
// reads its output when that output is not live, when that reader is the
// output's only reader in the table, and when the reader keeps at most
// four distinct inputs. Then it drops every record whose output is neither
// live nor named and that no record it keeps reads (prune): nothing reads
// what those compute. Then it folds every record whose output is neither
// live nor named into all the records that read it, to a fixed point,
// while each of them keeps at most four distinct inputs (share): a gate
// read by several records is evaluated in each, and a fold hands the
// folded record's inputs to its readers, so it leaves no record unread.
// So only the outputs of the records Fuse returns are written by Settle; a
// folded or dropped gate's output has no slot, and live must report true
// for every net the table drives that named lists. Every bit of a fused
// table is read from the folded gates' tables on the 16 input
// combinations, and those are EvalGate's answers, so it is EvalGate's
// answer by construction, as Truth's bits are. The records are in
// topological order. One walk makes them into a table with room for one
// per gate, which Fuse returns as it is: a copy at their exact number
// would allocate more than it saves.
func Fuse(nl *netlist.Netlist, tab []TruthGate, live func(netlist.NetID) bool, named []netlist.NetID) (Program, []int32) {
	links := 0 // the chain links' outputs, numbered after the nets
	for i := range tab {
		if t := &tab[i]; t.TT == Wide {
			links += chainLen(len(nl.Gates[t.A].Inputs)) - 1
		}
	}
	// The reader array and the records' outputs share one allocation.
	span := len(nl.Nets) + links
	arr := make([]int32, span+len(tab))
	w := fuser{
		reader: arr[:span:span],
		recs:   make([]FusedGate, 0, len(tab)),
		outs:   arr[span:span],
	}
	nets := int32(len(nl.Nets))
	next := nets // the first output of the next chain
	for i := len(tab) - 1; i >= 0; i-- {
		w.chain = pieces(nl, &tab[i], &next, w.chain[:0])
		for k := range w.chain {
			w.place(&w.chain[k], nets, live)
		}
	}
	// The walk made the records last first.
	slices.Reverse(w.recs)
	slices.Reverse(w.outs)
	w.prune(nets, live, named)
	w.share(nets, live, named)
	recs := w.recs

	// The slot map, over the walk's reader array: record i's output holds
	// -(i+1), input slot j j+1, a folded net folded.
	slot := w.reader
	clear(slot)
	for i, o := range w.outs {
		slot[o] = -int32(i) - 1
	}
	for i := range tab {
		if o := tab[i].Out; slot[o] == 0 {
			slot[o] = folded
		}
	}
	base := int32(0)
	input := func(v int32) {
		if slot[v] == 0 {
			base++
			slot[v] = base
		}
	}
	for _, n := range named {
		if slot[n] == folded {
			panic(fmt.Sprintf("sim: Fuse folded %s, which the caller names", nl.Nets[n].Name))
		}
		input(int32(n))
	}
	for i := range recs {
		for _, v := range recs[i].In {
			input(v)
		}
	}
	ids := make([]netlist.NetID, base, int(base)+len(recs))
	for v, s := range slot {
		if s > 0 {
			ids[s-1] = netlist.NetID(v)
		}
	}
	at := func(v int32) int32 {
		if s := slot[v]; s < 0 {
			return base - s - 1
		}
		return slot[v] - 1
	}
	for i := range recs {
		for j, v := range recs[i].In {
			recs[i].In[j] = at(v)
		}
	}
	slots := make([]int32, len(named))
	for j, n := range named {
		slots[j] = at(int32(n))
	}
	for _, o := range w.outs {
		if o >= nets {
			o = int32(NoNet)
		}
		ids = append(ids, netlist.NetID(o))
	}
	return Program{Tab: recs, Base: base, Nets: ids}, slots
}

// fuser is the state of Fuse's walk: who reads each net or link, and the
// records made so far, last first.
type fuser struct {
	// reader[v] is r+1 while record r is the one record reading v, 0
	// while no record reads it, and shared once two do.
	reader []int32
	recs   []FusedGate // the records, their inputs the IDs of pieces
	outs   []int32     // record r's output
	chain  []piece     // the pieces of the gate being walked, last first
}

const (
	shared = -1
	folded = -1 << 31
)

// piece is a function of at most four inputs that Fuse folds: a gate of at
// most four inputs, or a link of the chain a wider gate becomes. Its
// inputs and output are a net's ID, or, at len(nl.Nets) and above, a
// link's output.
type piece struct {
	in  [4]int32
	n   int    // in[:n] are the inputs; one may repeat
	tt  uint16 // bit i: the output when in[j] holds bit j of i
	out int32
}

// place folds piece p into the one record reading its output, or starts
// a record of it, and claims p's inputs for that record. An output at or
// above nets is a chain link's, which is never live.
func (w *fuser) place(p *piece, nets int32, live func(netlist.NetID) bool) {
	r := w.reader[p.out] - 1
	if r >= 0 && (p.out >= nets || !live(netlist.NetID(p.out))) {
		if in, ok := merge(w.recs[r].In, p); ok {
			w.recs[r].fold(p, in)
		} else {
			r = -1
		}
	} else {
		r = -1
	}
	if r < 0 {
		r = int32(len(w.recs))
		w.recs = append(w.recs, leaf(p))
		w.outs = append(w.outs, p.out)
	}
	for _, v := range p.in[:p.n] {
		switch w.reader[v] {
		case 0:
			w.reader[v] = r + 1
		case r + 1:
		default:
			w.reader[v] = shared
		}
	}
}

// A record's state in share's arena: 0 while settled.
const (
	dirty int32 = 1 + iota // to try: what its fold depends on changed
	gone                   // folded into every reader
)

// share folds, to a fixed point, every record into all the records that
// read its output, when that output is neither live nor named, and when
// each reader keeps at most four distinct inputs; a record no record reads
// stays. The records are in topological order, their inputs IDs.
//
// While it folds, an input that is the output of a record p that may fold
// reads -(p+1), so no net-indexed map is needed past the start, and the
// walk's reader array, which held that map, holds the passes' state when
// it is long enough. A pass walks the records forward over reader lists
// built at its start (CSR) of the inputs so marked: a live or named
// record has none, and stays. Those lists stay exact for every record the
// pass has not reached: folding record r rewrites only the inputs of r's
// readers, which lie past r, and the reader lists of the records r reads,
// which lie before it. Whether a record folds depends on its inputs, its
// readers and theirs, so a fold marks each reader and the records it now
// reads to be tried again, and a pass tries only the marked records; the
// passes repeat while a fold marked one a pass had already passed.
func (w *fuser) share(nets int32, live func(netlist.NetID) bool, named []netlist.NetID) {
	recs, outs := w.recs, w.outs
	n := len(recs)
	owner := w.reader // the output of each record that may fold: the record + 1
	clear(owner)
	for r, o := range outs {
		if o >= nets || !live(netlist.NetID(o)) {
			owner[o] = int32(r) + 1
		}
	}
	for _, v := range named {
		owner[v] = 0
	}
	size := 2*n + 1 // the arena: the offsets, the states, the reader lists
	for t := range recs {
		in := &recs[t].In
		for j, v := range in {
			if p := owner[v]; p > 0 {
				in[j] = -p
			}
		}
		for _, v := range in[:width(*in)] {
			size += int(b2u(v < 0))
		}
	}
	arena := owner
	if size > len(arena) {
		arena = make([]int32, size)
	}
	off, state, list := arena[:n+1], arena[n+1:2*n+1], arena[2*n+1:]
	for r := range state {
		state[r] = dirty
	}
	var merged [16][4]int32 // the first readers' merged inputs
	for again := true; again; {
		// off[p] counts p's readers, then is where p's list ends, and after
		// the fill, which walks the readers backwards, where it starts.
		clear(off)
		for t := range recs {
			if state[t] == gone {
				continue
			}
			in := &recs[t].In
			for _, v := range in[:width(*in)] {
				if v < 0 {
					off[-v-1]++
				}
			}
		}
		for p := 1; p <= n; p++ {
			off[p] += off[p-1]
		}
		if int(off[n]) > len(list) { // folds can lengthen the lists
			list = make([]int32, off[n])
		}
		for t := n - 1; t >= 0; t-- {
			if state[t] == gone {
				continue
			}
			in := &recs[t].In
			for _, v := range in[:width(*in)] {
				if v < 0 {
					off[-v-1]--
					list[off[-v-1]] = int32(t)
				}
			}
		}

		again = false
		for r := range recs {
			if state[r] != dirty {
				continue
			}
			state[r] = 0
			readers := list[off[r]:off[r+1]]
			if len(readers) == 0 {
				continue
			}
			in := recs[r].In
			p := piece{in: in, n: width(in), tt: recs[r].TT, out: -int32(r) - 1}
			fits := true
			for i, t := range readers {
				m, ok := merge(recs[t].In, &p)
				if !ok {
					fits = false
					break
				}
				if i < len(merged) {
					merged[i] = m
				}
			}
			if !fits {
				continue
			}
			state[r] = gone
			for i, t := range readers {
				var m [4]int32
				if i < len(merged) {
					m = merged[i]
				} else {
					m, _ = merge(recs[t].In, &p)
				}
				recs[t].fold(&p, m)
				state[t] = dirty
				for _, v := range m[:width(m)] {
					if q := -v - 1; q >= 0 {
						state[q] = dirty
						again = again || q < int32(r)
					}
				}
			}
		}
	}

	for r := range recs {
		in := &recs[r].In
		for j, v := range in {
			if v < 0 {
				in[j] = outs[-v-1]
			}
		}
	}
	k := 0
	for r, o := range outs {
		if state[r] != gone {
			recs[k], outs[k] = recs[r], o
			k++
		}
	}
	w.recs, w.outs = recs[:k], outs[:k]
}

// prune drops every record whose output is neither live nor named and that
// no record kept reads, walking the topological records backwards: a
// record's readers lie after it, so one walk reaches the fixed point. The
// records' inputs are IDs.
func (w *fuser) prune(nets int32, live func(netlist.NetID) bool, named []netlist.NetID) {
	read := w.reader // nonzero: named, or read by a record kept
	clear(read)
	for _, n := range named {
		read[n] = 1
	}
	k := len(w.recs)
	for r := len(w.recs) - 1; r >= 0; r-- {
		o := w.outs[r]
		if read[o] == 0 && (o >= nets || !live(netlist.NetID(o))) {
			continue
		}
		for _, v := range w.recs[r].In {
			read[v] = 1
		}
		k--
		w.recs[k], w.outs[k] = w.recs[r], o
	}
	w.recs, w.outs = w.recs[k:], w.outs[k:]
}

// pieces appends to chain the pieces of gate t, last first: one for a gate
// of at most four inputs, and for a wider one a chain of links — the
// first folding four inputs with the gate's associative operator, every
// further one the link before and up to three more, the last applying the
// gate's own operator — whose outputs are numbered from *next on.
func pieces(nl *netlist.Netlist, t *TruthGate, next *int32, chain []piece) []piece {
	if t.TT < Wide {
		return append(chain, piece{in: [4]int32{int32(t.A), int32(t.B)}, n: 2, tt: uint16(t.TT) * 0x1111, out: int32(t.Out)})
	}
	g := &nl.Gates[t.A]
	ins := g.Inputs
	links := chainLen(len(ins))
	first := *next
	*next += int32(links - 1)
	for l := links - 1; l >= 0; l-- {
		p := piece{out: int32(t.Out)}
		kind, from := assoc(g.Kind), 0
		if l > 0 {
			p.in[0], p.n, from = first+int32(l-1), 1, 4+3*(l-1)
		}
		for _, v := range ins[from:min(len(ins), from+4-p.n)] {
			p.in[p.n] = int32(v)
			p.n++
		}
		if l < links-1 {
			p.out = first + int32(l)
		} else {
			kind = g.Kind
		}
		p.tt = table(kind, p.n)
		chain = append(chain, p)
	}
	return chain
}

// chainLen is how many links a gate of n inputs becomes: one up to four
// inputs, and one more for every three past four.
func chainLen(n int) int {
	if n <= 4 {
		return 1
	}
	return 1 + (n-2)/3
}

// assoc is the associative operator a gate of kind k applies before its
// output's inversion: a chain's links but the last apply it.
func assoc(k verilog.GateKind) verilog.GateKind {
	switch k {
	case verilog.GateNand:
		return verilog.GateAnd
	case verilog.GateNor:
		return verilog.GateOr
	case verilog.GateXnor:
		return verilog.GateXor
	}
	return k
}

// inputs are the 16-bit tables of the four record inputs themselves: bit i
// of inputs[j] is bit j of i.
var inputs = [4]uint16{0xaaaa, 0xcccc, 0xf0f0, 0xff00}

// leafInputs returns the inputs of the record of p alone: p's distinct
// inputs in order, the slots past them repeating the first.
func leafInputs(p *piece) [4]int32 {
	if a, b := p.in[0], p.in[1]; p.n == 2 && a != b {
		return [4]int32{a, b, a, a}
	}
	in := [4]int32{p.in[0], p.in[0], p.in[0], p.in[0]}
	n := 1
	for _, v := range p.in[1:p.n] {
		if !slices.Contains(in[:n], v) {
			in[n] = v
			n++
		}
	}
	return in
}

// leaf returns the record of p alone, its inputs still IDs.
func leaf(p *piece) FusedGate {
	in := leafInputs(p)
	if width(in) == p.n { // p's inputs, distinct and in order: p's table
		return FusedGate{In: in, TT: p.tt}
	}
	return FusedGate{In: in, TT: p.table(in)}
}

// table returns p's function as a table over the record inputs in, which
// hold each of p's inputs.
func (p *piece) table(in [4]int32) uint16 {
	n := width(in)
	var x [4]uint16 // p's input j as a table over in
	for j, v := range p.in[:p.n] {
		x[j] = inputs[slices.Index(in[:n], v)]
	}
	return compose(p.tt, x)
}

// width is how many distinct inputs in holds, a FusedGate's In: the slots
// past them repeat In[0].
func width(in [4]int32) int {
	return 1 + int(b2u(in[1] != in[0])+b2u(in[2] != in[0])+b2u(in[3] != in[0]))
}

// merge returns the inputs of a record with inputs in once its input p.out
// is replaced by p: in's others in order, then p's inputs, each once, the
// slots past them repeating the first. It reports false when they are more
// than four.
func merge(in [4]int32, p *piece) ([4]int32, bool) {
	var m [4]int32
	n := 0
	for _, v := range in[:width(in)] { // distinct, and one is p.out
		if v != p.out {
			m[n] = v
			n++
		}
	}
	for _, v := range p.in[:p.n] {
		if slices.Contains(m[:n], v) {
			continue
		}
		if n == 4 {
			return m, false
		}
		m[n] = v
		n++
	}
	for k := n; k < 4; k++ {
		m[k] = m[0]
	}
	return m, true
}

// fold replaces input p.out of r, a record whose inputs are still IDs, by
// p, making in, merge's answer, its inputs. The new table is r's composed
// with p's, both read bit by bit. r's other inputs lead in, in their order.
func (r *FusedGate) fold(p *piece, in [4]int32) {
	var x [4]uint16 // r's input j as a table over the new inputs
	k := 0
	for j, v := range r.In[:width(r.In)] {
		if v == p.out {
			x[j] = p.table(in)
		} else {
			x[j] = inputs[k]
			k++
		}
	}
	r.In, r.TT = in, compose(r.TT, x)
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
