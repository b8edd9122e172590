// Package sim is the sequential event-driven gate-level simulator: the
// correctness oracle for the Time Warp kernel, the sequential-time
// baseline for speedup measurements, and the producer of the event traces
// that drive the deterministic cluster model.
//
// Timing model (as in the paper's experiments): unit gate delay, zero wire
// delay. Each input vector is one clock cycle:
//
//   - at delta 0 the vector is applied to the non-clock primary inputs;
//   - value changes propagate through combinational logic, one delta per
//     gate level;
//   - when the combinational logic settles, every DFF samples its d input
//     (the synchronous clock tick — clock nets carry no events);
//   - new q values propagate at delta 0 of the next cycle.
//
// Delta semantics are two-phase (pure unit delay): every gate evaluated at
// delta d reads the net values as they stood when delta d began, and all
// resulting output changes are applied together at d+1. Evaluation order
// within a delta therefore cannot influence any value, event count, or
// hook sequence — the property that makes the 64-lane PackedSimulator
// (packed.go) bit-for-bit equivalent to independent scalar runs.
//
// Virtual time is cycle*DeltaRange + delta, shared verbatim with the Time
// Warp kernel so the two simulators are step-for-step comparable.
package sim

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// VTime is a virtual timestamp: cycle*DeltaRange + delta.
type VTime = uint64

// Simulator is a sequential event-driven simulator over a flat netlist.
type Simulator struct {
	NL *netlist.Netlist
	// DeltaRange is the number of delta slots per cycle (combinational
	// depth + margin); the DFF latch fires at delta DeltaRange-2.
	DeltaRange uint64

	values []bool // current value per net
	// vectorPIs are the primary inputs that receive stimulus (clock PIs
	// excluded).
	vectorPIs []netlist.NetID

	cycle uint64

	// Per-delta batching state.
	changedNets []netlist.NetID
	dirtyGates  []netlist.GateID
	gateMark    []uint64
	markStamp   uint64
	settleTab   []TruthGate     // combinational gates in topological order
	latchBuf    []netlist.NetID // q nets toggling at the current latch
	applyNets   []netlist.NetID // outputs changing in the current delta
	applyVals   []bool          // their new values (applied after all evals)

	// Trace hooks (nil when not tracing).
	OnGateEval  func(g netlist.GateID, t VTime)
	OnNetChange func(n netlist.NetID, t VTime, v bool)

	// Stats accumulated across cycles.
	Events    uint64   // gate evaluations
	Toggles   uint64   // net value changes
	EvalCount []uint64 // per-gate evaluation counts (activity profile)
}

// New builds a simulator. It fails on combinational cycles.
func New(nl *netlist.Netlist) (*Simulator, error) {
	depth, err := nl.Depth()
	if err != nil {
		return nil, err
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		NL:         nl,
		DeltaRange: uint64(depth) + 4,
		values:     make([]bool, len(nl.Nets)),
		gateMark:   make([]uint64, len(nl.Gates)),
		EvalCount:  make([]uint64, len(nl.Gates)),
	}
	s.settleTab = make([]TruthGate, 0, nl.Stats().Combinational)
	for _, gi := range order {
		if !nl.Gates[gi].Kind.Sequential() {
			s.settleTab = append(s.settleTab, CompileGate(nl, gi))
		}
	}
	for _, pi := range nl.PIs {
		if !nl.IsClockNet(pi) {
			s.vectorPIs = append(s.vectorPIs, pi)
		}
	}
	s.Reset()
	return s, nil
}

// InitialValues returns a copy of the consistent power-on net state: all
// PIs and DFF outputs at 0, constants at their value, and every
// combinational gate's output consistent with its inputs. The Time Warp
// kernel starts each cluster from this same state.
func (s *Simulator) InitialValues() []bool {
	init := make([]bool, len(s.NL.Nets))
	for i := range init {
		init[i] = s.NL.Nets[i].Const == 1
	}
	settle(s.NL, s.settleTab, init)
	return init
}

// settle makes `values` combinationally consistent by evaluating every
// combinational gate once, in the topological order of tab.
func settle(nl *netlist.Netlist, tab []TruthGate, values []bool) {
	for i := range tab {
		t := &tab[i]
		if t.TT < Wide {
			values[t.Out] = t.Eval(values)
		} else {
			values[t.Out] = EvalGate(&nl.Gates[t.A], values)
		}
	}
}

// LatchDelta returns the delta slot at which DFFs sample their inputs.
func (s *Simulator) LatchDelta() uint64 { return s.DeltaRange - 2 }

// VectorPIs returns the stimulus inputs in top-module port order (clock
// nets excluded).
func (s *Simulator) VectorPIs() []netlist.NetID { return s.vectorPIs }

// VectorWidth returns the bits expected per input vector.
func (s *Simulator) VectorWidth() int { return len(s.vectorPIs) }

// Reset restores the consistent power-on state (see InitialValues) and
// rewinds time.
func (s *Simulator) Reset() {
	for i := range s.values {
		s.values[i] = s.NL.Nets[i].Const == 1
	}
	settle(s.NL, s.settleTab, s.values)
	s.cycle = 0
	s.Events = 0
	s.Toggles = 0
	s.changedNets = s.changedNets[:0]
	for i := range s.EvalCount {
		s.EvalCount[i] = 0
	}
}

// Value returns the current value of a net.
func (s *Simulator) Value(n netlist.NetID) bool { return s.values[n] }

// Cycle returns the number of completed cycles.
func (s *Simulator) Cycle() uint64 { return s.cycle }

// Step simulates one clock cycle with the given input vector (one bool
// per VectorPIs entry). It returns the number of gate evaluations
// performed during the cycle.
func (s *Simulator) Step(vector []bool) (uint64, error) {
	if len(vector) != len(s.vectorPIs) {
		return 0, fmt.Errorf("sim: vector has %d bits, want %d", len(vector), len(s.vectorPIs))
	}
	start := s.Events
	base := s.cycle * s.DeltaRange

	// Delta 0: apply the vector. changedNets already holds the q-output
	// changes latched at the end of the previous cycle, which also take
	// effect at this cycle's delta 0.
	for i, pi := range s.vectorPIs {
		if s.values[pi] != vector[i] {
			s.setNet(pi, vector[i], base)
		}
	}

	// Combinational settling, one delta per gate delay.
	delta := uint64(0)
	for len(s.changedNets) > 0 {
		if delta >= s.LatchDelta() {
			return 0, fmt.Errorf("sim: cycle %d did not settle within %d deltas (oscillation?)",
				s.cycle, s.LatchDelta())
		}
		s.propagateDelta(base + delta)
		delta++
	}

	// Latch: every DFF samples d simultaneously (sample all inputs
	// first, then apply — a DFF chain must shift one stage per cycle,
	// not ripple through). q changes appear at the next cycle's delta 0
	// (they stay in changedNets for the next Step).
	latchT := base + s.LatchDelta()
	nextBase := (s.cycle + 1) * s.DeltaRange
	s.latchBuf = s.latchBuf[:0]
	for gi := range s.NL.Gates {
		g := &s.NL.Gates[gi]
		if !g.Kind.Sequential() {
			continue
		}
		d := s.values[g.Inputs[0]]
		s.Events++
		s.EvalCount[gi]++
		if s.OnGateEval != nil {
			s.OnGateEval(netlist.GateID(gi), latchT)
		}
		if s.values[g.Output] != d {
			s.latchBuf = append(s.latchBuf, g.Output)
		}
	}
	for _, q := range s.latchBuf {
		s.setNet(q, !s.values[q], nextBase)
	}

	s.cycle++
	return s.Events - start, nil
}

// propagateDelta processes all net changes batched at time t in two
// phases: every gate reading a changed net is evaluated once against the
// values as they stood when the delta began, then all outputs that differ
// are applied together at t+1 (batched for the next delta). Deferring the
// writes keeps evaluation order irrelevant — a gate evaluated later in
// the same delta can never observe an earlier gate's same-delta output.
func (s *Simulator) propagateDelta(t VTime) {
	s.markStamp++
	s.dirtyGates = s.dirtyGates[:0]
	for _, n := range s.changedNets {
		for _, g := range s.NL.Nets[n].Sinks {
			if s.NL.Gates[g].Kind.Sequential() {
				continue // DFFs evaluate only at the latch
			}
			if s.gateMark[g] != s.markStamp {
				s.gateMark[g] = s.markStamp
				s.dirtyGates = append(s.dirtyGates, g)
			}
		}
	}
	s.changedNets = s.changedNets[:0]
	s.applyNets = s.applyNets[:0]
	s.applyVals = s.applyVals[:0]
	for _, gi := range s.dirtyGates {
		g := &s.NL.Gates[gi]
		s.Events++
		s.EvalCount[gi]++
		if s.OnGateEval != nil {
			s.OnGateEval(gi, t)
		}
		out := EvalGate(g, s.values)
		if s.values[g.Output] != out {
			s.applyNets = append(s.applyNets, g.Output)
			s.applyVals = append(s.applyVals, out)
		}
	}
	for i, n := range s.applyNets {
		s.setNet(n, s.applyVals[i], t+1)
	}
}

// setNet applies a net change at time t and records it for the next delta.
func (s *Simulator) setNet(n netlist.NetID, v bool, t VTime) {
	s.values[n] = v
	s.Toggles++
	if s.OnNetChange != nil {
		s.OnNetChange(n, t, v)
	}
	s.changedNets = append(s.changedNets, n)
}

// EvalGate computes a combinational gate's output from current net values.
// Step evaluates every gate with it; Truth tabulates it for the gates of one
// or two inputs, and the scout and the Time Warp kernel evaluate those from
// the table and hand only the wider ones back to it.
func EvalGate(g *netlist.Gate, values []bool) bool {
	switch g.Kind {
	case verilog.GateNot:
		return !values[g.Inputs[0]]
	case verilog.GateBuf:
		return values[g.Inputs[0]]
	}
	// Variadic gates.
	var acc bool
	switch g.Kind {
	case verilog.GateAnd, verilog.GateNand:
		acc = true
		for _, in := range g.Inputs {
			if !values[in] {
				acc = false
				break
			}
		}
		if g.Kind == verilog.GateNand {
			acc = !acc
		}
	case verilog.GateOr, verilog.GateNor:
		acc = false
		for _, in := range g.Inputs {
			if values[in] {
				acc = true
				break
			}
		}
		if g.Kind == verilog.GateNor {
			acc = !acc
		}
	case verilog.GateXor, verilog.GateXnor:
		acc = false
		for _, in := range g.Inputs {
			acc = acc != values[in]
		}
		if g.Kind == verilog.GateXnor {
			acc = !acc
		}
	default:
		panic(fmt.Sprintf("sim: cannot evaluate gate kind %v", g.Kind))
	}
	return acc
}
