package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// Sweep is a netlist's clock cycle compiled once: the stimulus inputs, the
// flip-flops, the combinational gates as TruthGate records in topological
// order, the delta range and the settled power-on state. Simulator, the
// wave bank with its PackedSimulator, the Time Warp host and every Machine
// read these facts from a Sweep instead of deriving them again. A Sweep
// runs no cycle: a Machine runs the two-valued one, Simulator the
// event-driven one.
type Sweep struct {
	NL *netlist.Netlist
	// DeltaRange is the number of delta slots per cycle (combinational
	// depth + margin); the DFF latch fires at delta DeltaRange-2.
	DeltaRange uint64
	// PIs are the stimulus inputs in top-module port order (clock nets
	// excluded): a vector holds one bit per entry.
	PIs []netlist.NetID
	// PowerOn is the consistent power-on net state: all PIs and DFF
	// outputs at 0, constants at their value, and every combinational
	// gate's output consistent with its inputs. Read-only: every Machine
	// starts from it.
	PowerOn []bool

	ffs []flipFlop  // in gate order
	tab []TruthGate // combinational gates in topological order
}

// flipFlop is a DFF: its gate, d input and q output.
type flipFlop struct {
	gate netlist.GateID
	d, q netlist.NetID
}

// NewSweep compiles nl's cycle. It fails on combinational cycles.
func NewSweep(nl *netlist.Netlist) (*Sweep, error) {
	levels, err := nl.Levels()
	if err != nil {
		return nil, err
	}
	depth := 0 // nl.Depth, without levelizing again
	for _, l := range levels {
		depth = max(depth, int(l)+1)
	}
	w := &Sweep{NL: nl, DeltaRange: uint64(depth) + 4, PowerOn: make([]bool, len(nl.Nets))}
	// A counting sort by level, gate order within a level: the
	// combinational part of nl.TopoOrder.
	next := make([]int, depth+1)
	for gi, l := range levels {
		if !nl.Gates[gi].Kind.Sequential() {
			next[l+1]++
		}
	}
	for l := 1; l <= depth; l++ {
		next[l] += next[l-1]
	}
	w.tab = make([]TruthGate, next[depth])
	w.ffs = make([]flipFlop, 0, len(levels)-len(w.tab))
	for gi, l := range levels {
		if g := &nl.Gates[gi]; g.Kind.Sequential() {
			w.ffs = append(w.ffs, flipFlop{gate: netlist.GateID(gi), d: g.Inputs[0], q: g.Output})
		} else {
			w.tab[next[l]] = CompileGate(nl, netlist.GateID(gi))
			next[l]++
		}
	}
	w.PIs = make([]netlist.NetID, 0, len(nl.PIs))
	for _, pi := range nl.PIs {
		if !nl.IsClockNet(pi) {
			w.PIs = append(w.PIs, pi)
		}
	}
	for n := range w.PowerOn {
		w.PowerOn[n] = nl.Nets[n].Const == 1
	}
	w.settle(w.PowerOn)
	return w, nil
}

// settle makes values combinationally consistent by evaluating every
// combinational gate once, in topological order, writing each output at
// once; a wide record reads its gate from the netlist. It settles the
// power-on state, which NewSweep must do without fusing the table (Fuse
// costs more than one settle), and it is the gate-by-gate reference the
// fused tables are held to.
func (w *Sweep) settle(values []bool) {
	for i := range w.tab {
		t := &w.tab[i]
		if t.TT < Wide {
			values[t.Out] = t.Eval(values)
		} else {
			values[t.Out] = EvalGate(&w.NL.Gates[t.A], values)
		}
	}
}

// AppendSlice appends to tab the combinational gates keep selects, in the
// sweep's topological order: a table that settles on its own once every
// other gate's output is final, and that Fuse compiles for Settle.
func (w *Sweep) AppendSlice(tab []TruthGate, keep func(netlist.GateID) bool) []TruthGate {
	for _, t := range w.tab {
		if keep(w.NL.Nets[t.Out].Driver) {
			tab = append(tab, t)
		}
	}
	return tab
}

// Machine is the two-valued sequential cycle over one fused table: a
// Program, the slot array it settles, and the latch. Cycle writes a
// stimulus vector into the stimulus inputs' slots, settles them and
// latches: it gathers every flip-flop's d, then copies them over the q's
// as one block, so a flip-flop chain shifts one stage per cycle. A program
// of at most narrowSlots slots keeps only its narrow records, which
// settleNarrow settles over one narrowSlots array; a larger one keeps Tab,
// which Settle settles. The Time Warp kernel's clusters, the wave bank's
// scout and Levelized each run one (DESIGN §20).
type Machine struct {
	Program // Tab is nil when the machine settles narrow records (Records)
	// Slots is the state: power-on until the first Cycle, then the
	// post-latch state of the last one. Flip-flop i's q is slot i. For a
	// program of at most narrowSlots slots it is a view of the array
	// Cycle settles: write into it, but do not replace it before a Cycle.
	Slots []bool

	narrow []narrowGate       // the records, when the program has at most narrowSlots slots
	fixed  *[narrowSlots]bool // Slots' array then, else nil
	vec    []bool             // the last Cycle's vector, one bit per Sweep.PIs entry
	stim   []int32            // per Sweep.PIs entry: its slot
	latchD []int32            // per flip-flop: its d's slot
	next   []bool             // the latch's gathered d's
}

// NewMachine compiles the cycle of the gates keep marks, by GateID (nil:
// every gate): it fuses their slice of sw's table and loads the power-on
// state. The nets are named to Fuse q's first, in gate order, so flip-flop
// i's q takes slot i; then every stimulus input; then named, the nets the
// caller reads or writes outside Cycle, whose slots it returns in order;
// then the d's. A net the table drives keeps its value after the settle
// when machineLive finds it named or read outside the table; Fuse folds
// every other into the records that read it, or drops it when none does.
// A program of at most narrowSlots slots trades Tab for its narrow records,
// and Slots becomes a view of a narrowSlots array.
func NewMachine(sw *Sweep, keep []bool, named []netlist.NetID) (Machine, []int32) {
	kept := func(g netlist.GateID) bool { return keep == nil || keep[g] }
	ffs := 0
	for _, f := range sw.ffs {
		ffs += int(b2u(kept(f.gate)))
	}
	tab := sw.tab
	if keep != nil {
		n := -ffs // the combinational gates keep marks
		for _, k := range keep {
			n += int(b2u(k))
		}
		tab = sw.AppendSlice(make([]TruthGate, 0, n), kept)
	}
	// The q's, the stimulus inputs, named, the d's.
	names := make([]netlist.NetID, 2*ffs+len(sw.PIs)+len(named))
	copy(names[ffs:], sw.PIs)
	copy(names[ffs+len(sw.PIs):], named)
	i := 0
	for _, f := range sw.ffs {
		if kept(f.gate) {
			names[i], names[len(names)-ffs+i] = f.q, f.d
			i++
		}
	}
	p, slots := Fuse(sw.NL, tab, machineLive(sw.NL, tab, kept, named), names)
	for i, s := range slots[:ffs] {
		if s != int32(i) {
			panic(fmt.Sprintf("sim: flip-flop %d's q in slot %d", i, s))
		}
	}
	slots = slots[ffs:]
	m := Machine{
		Program: p,
		vec:     make([]bool, len(sw.PIs)),
		stim:    slots[:len(sw.PIs)],
		latchD:  slots[len(slots)-ffs:],
		next:    make([]bool, ffs),
	}
	if len(p.Nets) <= narrowSlots {
		m.narrow, m.Tab, m.fixed = narrow(p.Tab), nil, new([narrowSlots]bool)
		m.Slots = m.fixed[:len(p.Nets)]
	} else {
		m.Slots = make([]bool, len(p.Nets))
	}
	m.Load(m.Slots, sw.PowerOn)
	return m, slots[len(sw.PIs) : len(slots)-ffs]
}

// machineLive is a Machine's live rule over tab, the slice of a sweep's
// table kept selects: a net tab drives keeps its value after the settle
// when named lists it, or when a flip-flop or a combinational gate kept
// does not select reads it. Nothing else reads a net after the settle.
func machineLive(nl *netlist.Netlist, tab []TruthGate, kept func(netlist.GateID) bool, named []netlist.NetID) func(netlist.NetID) bool {
	set := make([]bool, len(nl.Nets))
	for _, n := range named {
		set[n] = true
	}
	for _, t := range tab {
		for _, s := range nl.Nets[t.Out].Sinks {
			if nl.Gates[s].Kind.Sequential() || !kept(s) {
				set[t.Out] = true
				break
			}
		}
	}
	return func(n netlist.NetID) bool { return set[n] }
}

// Records returns the machine's records as FusedGates: Tab, or a widened
// copy of the narrow records of a machine that settles those.
func (m *Machine) Records() []FusedGate {
	if m.fixed == nil {
		return m.Tab
	}
	tab := make([]FusedGate, len(m.narrow))
	for i, r := range m.narrow {
		tab[i] = FusedGate{In: [4]int32{int32(r.In[0]), int32(r.In[1]), int32(r.In[2]), int32(r.In[3])}, TT: r.TT}
	}
	return tab
}

// Cycle runs one clock cycle: it writes src's vector for cycle into the
// stimulus inputs' slots, settles, and latches.
func (m *Machine) Cycle(src VectorSource, cycle uint64) {
	src.Vector(cycle, m.vec)
	slots := m.Slots
	for i, s := range m.stim {
		slots[s] = m.vec[i]
	}
	if m.fixed != nil {
		settleNarrow(m.narrow, m.Base, m.fixed)
	} else {
		Settle(&m.Program, slots)
	}
	d := m.latchD
	next := m.next[:len(d)]
	for i, s := range d {
		next[i] = slots[s]
	}
	copy(slots[:len(d)], next)
}
