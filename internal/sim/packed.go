// PackedSimulator: the 64-wide bit-parallel gate evaluator. One uint64
// lane-word per net holds 64 independent simulations (bit l = lane l);
// every gate evaluation is a handful of bitwise ops covering all lanes at
// once — the classic parallel-pattern technique from levelized fault
// simulation, applied to the event-driven unit-delay model.
//
// It has one drive, ReplayWave: the state-injected replay of a recorded
// scalar run (WaveBank), where lane l reproduces cycle Base+l of the
// original sequential run exactly — trace hooks included. This is how one
// 10k-cycle pre-simulation becomes ~157 packed waves. Semantics are
// bit-for-bit those of the scalar Simulator: the same two-phase delta
// loop (see sim.go — evaluations read start-of-delta state, changes apply
// together at the next delta), the same dirty-gate batching per lane (a
// gate evaluates in exactly the lanes where an input changed), and the
// same DFF latch at LatchDelta. A gate of one or two inputs is evaluated
// from its sweep record's truth table (ttWord), a wider one gate by gate.
//
// Trace hooks receive lane masks instead of single events: one
// OnGateEvalMask call stands for up to 64 scalar OnGateEval calls.
// The delta argument is the scalar hook's t % DeltaRange (0 = vector
// application or a latched q change, >0 = a combinational change applied
// at that delta). The wave bank records a wave's trace through them
// (WaveTrace).
package sim

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// PackedSimulator replays up to 64 cycles of a recorded run word-parallel.
type PackedSimulator struct {
	NL *netlist.Netlist
	// DeltaRange matches the scalar Simulator's (depth + margin).
	DeltaRange uint64

	sw    *Sweep   // the bank's: stimulus inputs and flip-flops (latch order)
	words []uint64 // current value per net, one bit per lane

	// The combinational gates reading each net, as a CSR: net n's are
	// sinks[sinkOff[n]:sinkOff[n+1]]. Gate g's sweep record is
	// sw.tab[rec[g]].
	sinkOff []int32
	sinks   []netlist.GateID
	rec     []int32

	// per-delta batching state.
	chgMask   []uint64 // per net: lanes changed this delta
	chgList   []netlist.NetID
	dirty     []netlist.GateID
	gateMark  []uint64
	markStamp uint64
	evalMask  []uint64 // per gate: lanes to evaluate (valid when marked)

	// two-phase apply buffers.
	applyNets []netlist.NetID
	applyDiff []uint64

	// Trace hooks (nil when not tracing). mask is the affected lanes;
	// word (net changes) is the net's lane-word after the change.
	OnGateEvalMask  func(g netlist.GateID, delta uint64, mask uint64)
	OnNetChangeMask func(n netlist.NetID, delta uint64, mask uint64, word uint64)
}

// NewPacked builds a packed simulator ready to replay b's waves. It
// reads the bank's compiled cycle and indexes each net's combinational
// sinks once.
func NewPacked(b *WaveBank) *PackedSimulator {
	nl := b.sw.NL
	s := &PackedSimulator{
		NL:         nl,
		DeltaRange: b.sw.DeltaRange,
		sw:         b.sw,
		words:      make([]uint64, len(nl.Nets)),
		sinkOff:    make([]int32, len(nl.Nets)+1),
		rec:        make([]int32, len(nl.Gates)),
		chgMask:    make([]uint64, len(nl.Nets)),
		gateMark:   make([]uint64, len(nl.Gates)),
		evalMask:   make([]uint64, len(nl.Gates)),
	}
	for i, t := range b.sw.tab {
		s.rec[nl.Nets[t.Out].Driver] = int32(i)
	}
	// Two passes, so the CSR is allocated at its exact size. DFFs evaluate
	// only at the latch.
	comb := func(gi netlist.GateID) bool { return !nl.Gates[gi].Kind.Sequential() }
	for n := range nl.Nets {
		s.sinkOff[n+1] = s.sinkOff[n]
		for _, gi := range nl.Nets[n].Sinks {
			if comb(gi) {
				s.sinkOff[n+1]++
			}
		}
	}
	s.sinks = make([]netlist.GateID, 0, s.sinkOff[len(nl.Nets)])
	for n := range nl.Nets {
		for _, gi := range nl.Nets[n].Sinks {
			if comb(gi) {
				s.sinks = append(s.sinks, gi)
			}
		}
	}
	return s
}

// LatchDelta returns the delta slot at which DFFs sample their inputs.
func (s *PackedSimulator) LatchDelta() uint64 { return s.DeltaRange - 2 }

// ReplayWave loads a recorded wave's entry state (overwriting all lane
// state) and replays its cycles, one per lane, firing the mask hooks.
// Lane l reproduces cycle w.Base+l of the recorded scalar run event for
// event, so each replay is independent of the previous one.
func (s *PackedSimulator) ReplayWave(w *Wave) error {
	if len(w.Words) != len(s.words) {
		return fmt.Errorf("sim: wave has %d nets, netlist has %d", len(w.Words), len(s.words))
	}
	if len(w.Vecs) != len(s.sw.PIs) {
		return fmt.Errorf("sim: wave has %d vector PIs, netlist has %d", len(w.Vecs), len(s.sw.PIs))
	}
	copy(s.words, w.Words)
	s.clearChanged()
	active := LaneMask(w.Lanes)

	// Delta 0: the q changes each lane's predecessor cycle latched (already
	// hook-reported by that latch) and the vector diff.
	for _, mn := range w.Pending {
		if m := mn.Mask & active; m != 0 {
			s.markChanged(mn.Net, m)
		}
	}
	for i, pi := range s.sw.PIs {
		diff := (s.words[pi] ^ w.Vecs[i]) & active
		if diff == 0 {
			continue
		}
		s.words[pi] ^= diff
		s.markChanged(pi, diff)
		if s.OnNetChangeMask != nil {
			s.OnNetChangeMask(pi, 0, diff, s.words[pi])
		}
	}

	// Two-phase combinational settling, one delta per gate delay.
	for delta := uint64(0); len(s.chgList) > 0; delta++ {
		if delta >= s.LatchDelta() {
			return fmt.Errorf("sim: packed cycle did not settle within %d deltas (oscillation?)",
				s.LatchDelta())
		}
		s.propagate(delta)
	}

	// Latch: every DFF samples d in every active lane. The q changes
	// surface at the next cycle's delta 0, which the next lane (or the
	// next wave's Pending) carries.
	s.applyNets = s.applyNets[:0]
	s.applyDiff = s.applyDiff[:0]
	latchDelta := s.LatchDelta()
	for _, f := range s.sw.ffs {
		if s.OnGateEvalMask != nil {
			s.OnGateEvalMask(f.gate, latchDelta, active)
		}
		if diff := (s.words[f.d] ^ s.words[f.q]) & active; diff != 0 {
			s.applyNets = append(s.applyNets, f.q)
			s.applyDiff = append(s.applyDiff, diff)
		}
	}
	for i, q := range s.applyNets {
		diff := s.applyDiff[i]
		s.words[q] ^= diff
		if s.OnNetChangeMask != nil {
			s.OnNetChangeMask(q, 0, diff, s.words[q])
		}
	}
	return nil
}

// propagate is one two-phase delta: gather dirty gates with their lane
// masks, evaluate all of them against the start-of-delta words, then
// apply every output change together.
func (s *PackedSimulator) propagate(delta uint64) {
	s.markStamp++
	s.dirty = s.dirty[:0]
	for _, n := range s.chgList {
		m := s.chgMask[n]
		s.chgMask[n] = 0
		for _, gi := range s.sinks[s.sinkOff[n]:s.sinkOff[n+1]] {
			if s.gateMark[gi] != s.markStamp {
				s.gateMark[gi] = s.markStamp
				s.evalMask[gi] = 0
				s.dirty = append(s.dirty, gi)
			}
			s.evalMask[gi] |= m
		}
	}
	s.chgList = s.chgList[:0]
	s.applyNets = s.applyNets[:0]
	s.applyDiff = s.applyDiff[:0]
	for _, gi := range s.dirty {
		t := &s.sw.tab[s.rec[gi]]
		em := s.evalMask[gi]
		if s.OnGateEvalMask != nil {
			s.OnGateEvalMask(gi, delta, em)
		}
		var out uint64
		if t.TT < Wide {
			out = ttWord(t.TT, s.words[t.A], s.words[t.B])
		} else {
			out = evalPackedGate(&s.NL.Gates[gi], s.words)
		}
		// Restricting the diff to em lanes matches scalar semantics: a
		// lane that did not evaluate cannot change (its bits are already
		// consistent; lanes past a ragged wave's tail hold zeros).
		if diff := (out ^ s.words[t.Out]) & em; diff != 0 {
			s.applyNets = append(s.applyNets, t.Out)
			s.applyDiff = append(s.applyDiff, diff)
		}
	}
	for i, n := range s.applyNets {
		diff := s.applyDiff[i]
		s.words[n] ^= diff
		s.markChanged(n, diff)
		if s.OnNetChangeMask != nil {
			s.OnNetChangeMask(n, delta+1, diff, s.words[n])
		}
	}
}

func (s *PackedSimulator) markChanged(n netlist.NetID, m uint64) {
	if s.chgMask[n] == 0 {
		s.chgList = append(s.chgList, n)
	}
	s.chgMask[n] |= m
}

func (s *PackedSimulator) clearChanged() {
	for _, n := range s.chgList {
		s.chgMask[n] = 0
	}
	s.chgList = s.chgList[:0]
}

// ttWord applies the 4-bit truth table tt (TruthGate.TT) to lane-words a
// and b: each of the four input combinations selects the lanes it holds in,
// and tt's bit for it decides whether they read 1.
func ttWord(tt uint8, a, b uint64) uint64 {
	bit := func(i uint) uint64 { return -uint64(tt >> i & 1) }
	return ^a&^b&bit(0) | a&^b&bit(1) | ^a&b&bit(2) | a&b&bit(3)
}

// evalPackedGate computes a combinational gate's output lane-word with
// bitwise ops over whole words — 64 lanes per operation.
func evalPackedGate(g *netlist.Gate, words []uint64) uint64 {
	switch g.Kind {
	case verilog.GateNot:
		return ^words[g.Inputs[0]]
	case verilog.GateBuf:
		return words[g.Inputs[0]]
	}
	var acc uint64
	switch g.Kind {
	case verilog.GateAnd, verilog.GateNand:
		acc = ^uint64(0)
		for _, in := range g.Inputs {
			acc &= words[in]
		}
		if g.Kind == verilog.GateNand {
			acc = ^acc
		}
	case verilog.GateOr, verilog.GateNor:
		for _, in := range g.Inputs {
			acc |= words[in]
		}
		if g.Kind == verilog.GateNor {
			acc = ^acc
		}
	case verilog.GateXor, verilog.GateXnor:
		for _, in := range g.Inputs {
			acc ^= words[in]
		}
		if g.Kind == verilog.GateXnor {
			acc = ^acc
		}
	default:
		panic(fmt.Sprintf("sim: cannot evaluate gate kind %v", g.Kind))
	}
	return acc
}
