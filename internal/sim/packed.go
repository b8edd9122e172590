// PackedSimulator: the 64-wide bit-parallel gate evaluator. One uint64
// lane-word per net holds 64 independent simulations (bit l = lane l);
// every gate evaluation is a handful of bitwise ops covering all lanes at
// once — the classic parallel-pattern technique from levelized fault
// simulation, applied to the event-driven unit-delay model.
//
// Semantics are bit-for-bit those of 64 independent scalar Simulators:
// the same two-phase delta loop (see sim.go — evaluations read
// start-of-delta state, changes apply together at the next delta), the
// same dirty-gate batching per lane (a gate evaluates in exactly the
// lanes where an input changed), the same DFF latch at LatchDelta with q
// changes carried to the next cycle's delta 0, and the same per-lane
// event/toggle counts. Two ways to drive it:
//
//   - StepBatch: the generic API. Each call splits its vectors into
//     64-wide waves (vector w*64+j goes to lane j of wave w; a ragged
//     final wave advances only its populated lanes), so lane j advances
//     one cycle per vector it receives and is equivalent to a scalar
//     Simulator fed exactly that vector stream.
//   - ReplayWave: state-injected replay of a recorded scalar run
//     (WaveBank), where lane l reproduces cycle Base+l of the original
//     sequential run exactly — trace hooks included. This is how one
//     10k-cycle pre-simulation becomes ~157 packed waves.
//
// Trace hooks receive lane masks instead of single events: one
// OnGateEvalMask call stands for up to 64 scalar OnGateEval calls.
// The delta argument is the scalar hook's t % DeltaRange (0 = vector
// application or a latched q change, >0 = a combinational change applied
// at that delta).
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// PackedSimulator simulates up to 64 independent lanes word-parallel.
type PackedSimulator struct {
	NL *netlist.Netlist
	// DeltaRange matches the scalar Simulator's (depth + margin).
	DeltaRange uint64

	words     []uint64 // current value per net, one bit per lane
	vectorPIs []netlist.NetID
	seqGates  []netlist.GateID // DFFs, in gate-index order (latch order)
	topoOrder []netlist.GateID
	laneCycle [Lanes]uint64 // completed cycles per lane (StepBatch)

	// pending q changes: applied at each lane's next delta 0.
	pendMask []uint64 // per net
	pendList []netlist.NetID

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

	// DisableCounters skips the per-lane event/toggle counters (hooks
	// still fire) — for replay consumers that aggregate through the mask
	// hooks and never read LaneEvents/LaneToggles.
	DisableCounters bool

	events  LaneCounter // gate evaluations per lane
	toggles LaneCounter // net changes per lane
}

// NewPacked builds a packed simulator with every lane in the scalar
// power-on state. It fails on combinational cycles, exactly as New does.
func NewPacked(nl *netlist.Netlist) (*PackedSimulator, error) {
	depth, err := nl.Depth()
	if err != nil {
		return nil, err
	}
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	s := &PackedSimulator{
		NL:         nl,
		DeltaRange: uint64(depth) + 4,
		words:      make([]uint64, len(nl.Nets)),
		pendMask:   make([]uint64, len(nl.Nets)),
		chgMask:    make([]uint64, len(nl.Nets)),
		gateMark:   make([]uint64, len(nl.Gates)),
		evalMask:   make([]uint64, len(nl.Gates)),
		topoOrder:  order,
	}
	for _, pi := range nl.PIs {
		if !nl.IsClockNet(pi) {
			s.vectorPIs = append(s.vectorPIs, pi)
		}
	}
	for gi := range nl.Gates {
		if nl.Gates[gi].Kind.Sequential() {
			s.seqGates = append(s.seqGates, netlist.GateID(gi))
		}
	}
	s.Reset()
	return s, nil
}

// LatchDelta returns the delta slot at which DFFs sample their inputs.
func (s *PackedSimulator) LatchDelta() uint64 { return s.DeltaRange - 2 }

// VectorPIs returns the stimulus inputs (clock nets excluded).
func (s *PackedSimulator) VectorPIs() []netlist.NetID { return s.vectorPIs }

// VectorWidth returns the bits expected per input vector.
func (s *PackedSimulator) VectorWidth() int { return len(s.vectorPIs) }

// Reset restores every lane to the consistent power-on state and rewinds
// all lane clocks and counters.
func (s *PackedSimulator) Reset() {
	for i := range s.words {
		s.words[i] = broadcastWord(s.NL.Nets[i].Const == 1)
	}
	// Settle word-parallel: one topological pass, as the scalar settle.
	for _, gi := range s.topoOrder {
		g := &s.NL.Gates[gi]
		if g.Kind.Sequential() {
			continue
		}
		s.words[g.Output] = evalPackedGate(g, s.words)
	}
	s.laneCycle = [Lanes]uint64{}
	s.events.Reset()
	s.toggles.Reset()
	s.clearPending()
	s.clearChanged()
}

// Value returns one lane's current value of a net.
func (s *PackedSimulator) Value(lane int, n netlist.NetID) bool {
	return LaneBit(s.words[n], lane)
}

// LaneValues extracts one lane's full net state into dst (len = len(NL.Nets)).
func (s *PackedSimulator) LaneValues(lane int, dst []bool) {
	for n, w := range s.words {
		dst[n] = LaneBit(w, lane)
	}
}

// Cycle returns the number of completed cycles in a lane.
func (s *PackedSimulator) Cycle(lane int) uint64 { return s.laneCycle[lane] }

// LaneEvents returns a lane's gate-evaluation count — the scalar Events.
func (s *PackedSimulator) LaneEvents(lane int) uint64 { return s.events.Count(lane) }

// LaneToggles returns a lane's net-change count — the scalar Toggles.
func (s *PackedSimulator) LaneToggles(lane int) uint64 { return s.toggles.Count(lane) }

// StepBatch simulates one clock cycle per vector: vectors[w*64+j] drives
// lane j for its wave-w cycle. Waves run back to back; a final ragged
// wave (len not a multiple of 64) advances only lanes 0..len-1, leaving
// the rest untouched (state, pending q changes and counters preserved).
// Lane j is therefore bit-identical to a scalar Simulator fed the
// concatenation, across calls, of the vectors that landed in lane j.
func (s *PackedSimulator) StepBatch(vectors [][]bool) error {
	for start := 0; start < len(vectors); start += Lanes {
		end := start + Lanes
		if end > len(vectors) {
			end = len(vectors)
		}
		if err := s.stepWave(vectors[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// stepWave advances lanes 0..len(vecs)-1 by one cycle.
func (s *PackedSimulator) stepWave(vecs [][]bool) error {
	active := LaneMask(len(vecs))
	vecWords := make([]uint64, len(s.vectorPIs))
	for l, v := range vecs {
		if len(v) != len(s.vectorPIs) {
			return fmt.Errorf("sim: vector has %d bits, want %d", len(v), len(s.vectorPIs))
		}
		for i, bit := range v {
			if bit {
				vecWords[i] |= 1 << uint(l)
			}
		}
	}
	if err := s.runCycle(vecWords, active, true); err != nil {
		return err
	}
	for m := active; m != 0; m &= m - 1 {
		s.laneCycle[bits.TrailingZeros64(m)]++
	}
	return nil
}

// ReplayWave loads a recorded wave's entry state (overwriting all lane
// state and pending changes) and replays its cycles, one per lane, firing
// the mask hooks. Lane l reproduces cycle w.Base+l of the recorded scalar
// run event for event. Stateless with respect to StepBatch: lane clocks
// are not advanced, and each replay is independent of the previous one.
func (s *PackedSimulator) ReplayWave(w *Wave) error {
	if len(w.Words) != len(s.words) {
		return fmt.Errorf("sim: wave has %d nets, netlist has %d", len(w.Words), len(s.words))
	}
	if len(w.Vecs) != len(s.vectorPIs) {
		return fmt.Errorf("sim: wave has %d vector PIs, netlist has %d", len(w.Vecs), len(s.vectorPIs))
	}
	copy(s.words, w.Words)
	s.clearPending()
	s.clearChanged()
	for _, mn := range w.Pending {
		s.pendMask[mn.Net] = mn.Mask
		s.pendList = append(s.pendList, mn.Net)
	}
	return s.runCycle(w.Vecs, LaneMask(w.Lanes), false)
}

// runCycle is one cycle for every lane in `active`: pending q changes and
// the vector diff seed delta 0, the two-phase delta loop settles the
// combinational logic, and the latch samples every DFF. When persist is
// set, q changes are queued for the lanes' next cycle (StepBatch);
// ReplayWave drops them, since the next wave injects fresh state.
func (s *PackedSimulator) runCycle(vecWords []uint64, active uint64, persist bool) error {
	// Delta 0: consume pending q changes for the active lanes (recorded —
	// and hook-reported — by the latch that produced them) and apply the
	// vector diff.
	if len(s.pendList) > 0 {
		keep := s.pendList[:0]
		for _, n := range s.pendList {
			if take := s.pendMask[n] & active; take != 0 {
				s.markChanged(n, take)
			}
			if s.pendMask[n] &= ^active; s.pendMask[n] != 0 {
				keep = append(keep, n)
			}
		}
		s.pendList = keep
	}
	for i, pi := range s.vectorPIs {
		diff := (s.words[pi] ^ vecWords[i]) & active
		if diff == 0 {
			continue
		}
		s.words[pi] ^= diff
		if !s.DisableCounters {
			s.toggles.Add(diff)
		}
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

	// Latch: every DFF samples d in every active lane; q changes surface
	// at the next cycle's delta 0.
	s.applyNets = s.applyNets[:0]
	s.applyDiff = s.applyDiff[:0]
	latchDelta := s.LatchDelta()
	for _, gi := range s.seqGates {
		g := &s.NL.Gates[gi]
		if !s.DisableCounters {
			s.events.Add(active)
		}
		if s.OnGateEvalMask != nil {
			s.OnGateEvalMask(gi, latchDelta, active)
		}
		if diff := (s.words[g.Inputs[0]] ^ s.words[g.Output]) & active; diff != 0 {
			s.applyNets = append(s.applyNets, g.Output)
			s.applyDiff = append(s.applyDiff, diff)
		}
	}
	for i, q := range s.applyNets {
		diff := s.applyDiff[i]
		s.words[q] ^= diff
		if !s.DisableCounters {
			s.toggles.Add(diff)
		}
		if persist {
			if s.pendMask[q] == 0 {
				s.pendList = append(s.pendList, q)
			}
			s.pendMask[q] |= diff
		}
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
		for _, gi := range s.NL.Nets[n].Sinks {
			if s.NL.Gates[gi].Kind.Sequential() {
				continue // DFFs evaluate only at the latch
			}
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
		g := &s.NL.Gates[gi]
		em := s.evalMask[gi]
		if !s.DisableCounters {
			s.events.Add(em)
		}
		if s.OnGateEvalMask != nil {
			s.OnGateEvalMask(gi, delta, em)
		}
		out := evalPackedGate(g, s.words)
		// Restricting the diff to em lanes matches scalar semantics: a
		// lane that did not evaluate cannot change (its bits are already
		// consistent; ragged-tail lanes may hold stale junk).
		if diff := (out ^ s.words[g.Output]) & em; diff != 0 {
			s.applyNets = append(s.applyNets, g.Output)
			s.applyDiff = append(s.applyDiff, diff)
		}
	}
	for i, n := range s.applyNets {
		diff := s.applyDiff[i]
		s.words[n] ^= diff
		if !s.DisableCounters {
			s.toggles.Add(diff)
		}
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

func (s *PackedSimulator) clearPending() {
	for _, n := range s.pendList {
		s.pendMask[n] = 0
	}
	s.pendList = s.pendList[:0]
}

func (s *PackedSimulator) clearChanged() {
	for _, n := range s.chgList {
		s.chgMask[n] = 0
	}
	s.chgList = s.chgList[:0]
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
