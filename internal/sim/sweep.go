package sim

import "repro/internal/netlist"

// Sweep is a netlist's clock cycle compiled once: the stimulus inputs, the
// flip-flops, the combinational gates as TruthGate records in topological
// order, the delta range and the settled power-on state. Simulator, the
// wave bank with its PackedSimulator, and the Time Warp host read these
// facts from a Sweep instead of deriving them again.
//
// Step is the levelized cycle sweep: it evaluates every combinational gate
// once, in topological order and with zero delay, then latches. The
// combinational logic is acyclic (NewSweep refuses anything else), so the
// state it settles to is unique and is the one Simulator.Step's unit-delay
// delta loop reaches; the sweep has no deltas, events or hooks.
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
	// gate's output consistent with its inputs. Read-only: the Time Warp
	// kernel starts each cluster from a copy.
	PowerOn []bool

	ffs     []flipFlop  // in gate order
	tab     []TruthGate // combinational gates in topological order
	values  []bool      // the state the next Step starts from
	flipped []int32     // indices into ffs: the q's the last latch flipped (capacity: one per flip-flop)
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
	w.flipped = make([]int32, 0, len(w.ffs))
	w.settle(w.PowerOn)
	w.values = append([]bool(nil), w.PowerOn...)
	return w, nil
}

// settle makes values combinationally consistent by evaluating every
// combinational gate once, in topological order, writing each output at
// once. A wide record reads its gate from the netlist. Step's callers read
// every net, so its table is not fused (Fuse; DESIGN §20); the wave bank's
// scout, which reads only the flip-flops' d nets, settles a fused slice of
// it instead.
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

// Step simulates one clock cycle: it writes vector (one bit per PIs entry)
// to the stimulus inputs, settles, and latches — finding every q that
// differs from its d before flipping any, so a flip-flop chain shifts one
// stage per cycle. The flipping ones are collected without a branch: every
// index is written, and the end advances by whether q differs from d.
func (w *Sweep) Step(vector []bool) {
	values := w.values
	for i, pi := range w.PIs {
		values[pi] = vector[i]
	}
	w.settle(values)
	flipped, n := w.flipped[:len(w.ffs)], 0
	for i, f := range w.ffs {
		flipped[n] = int32(i)
		n += int(b2u(values[f.q] != values[f.d]))
	}
	w.flipped = flipped[:n]
	for _, i := range w.flipped {
		q := w.ffs[i].q
		values[q] = !values[q]
	}
}

// Values returns the state the next Step starts from: after a Step, the
// post-latch value of every net, as Simulator.Value reads it after its
// Step. It is the sweep's own slice; do not modify it.
func (w *Sweep) Values() []bool { return w.values }
