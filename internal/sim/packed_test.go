package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// laneCounterRef is the scalar reference for the bit-sliced LaneCounter.
func TestLaneCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var c LaneCounter
	var ref [Lanes]uint64
	for i := 0; i < 5000; i++ {
		m := rng.Uint64()
		c.Add(m)
		for l := 0; l < Lanes; l++ {
			if m>>uint(l)&1 == 1 {
				ref[l]++
			}
		}
	}
	var total uint64
	for l := 0; l < Lanes; l++ {
		if got := c.Count(l); got != ref[l] {
			t.Fatalf("lane %d: count %d, want %d", l, got, ref[l])
		}
		total += ref[l]
	}
	if got := c.Total(); got != total {
		t.Fatalf("total %d, want %d", got, total)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset counter not zero")
	}
}

// equivCircuits is the cross-family circuit pool the packed/scalar
// differential properties run over: every generator family plus several
// random hierarchical seeds.
func equivCircuits(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	out := make(map[string]*netlist.Netlist)
	add := func(name string, c *gen.Circuit) {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ed.Netlist
	}
	add("lfsr", gen.LFSR(12, nil))
	add("multiplier", gen.Multiplier(4))
	add("fir", gen.FIR(gen.FIRConfig{Taps: 4, W: 4, Seed: 3}))
	add("viterbi", gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 4}))
	for _, seed := range []int64{1, 12, 123} {
		add(fmt.Sprintf("randhier%d", seed), gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes:        3,
			GatesPerModule:     8,
			InstancesPerModule: 2,
			TopInstances:       3,
			PIs:                6,
			Seed:               seed,
			DFFFraction:        0.3,
		}))
	}
	return out
}

// vecFunc is a VectorSource given by a function of the cycle.
type vecFunc func(cycle uint64, buf []bool)

func (f vecFunc) Vector(cycle uint64, buf []bool) { f(cycle, buf) }

// TestPackedLaneEquivalence: lane l of a replayed wave is the scalar
// Simulator's cycle Base+l. It ends the cycle in the scalar state, having
// made as many gate evaluations and net changes, for every circuit family
// and a bank of 1, 63, 64 and 65 cycles: one lane, a ragged wave, a full
// wave, and a full wave followed by a one-lane wave.
func TestPackedLaneEquivalence(t *testing.T) {
	for name, nl := range equivCircuits(t) {
		for _, batchSize := range []int{1, 63, 64, 65} {
			t.Run(fmt.Sprintf("%s/batch%d", name, batchSize), func(t *testing.T) {
				src := RandomVectors{Seed: int64(len(name)*1000 + batchSize)}
				bank, err := NewWaveBank(nl, src, uint64(batchSize))
				if err != nil {
					t.Fatal(err)
				}
				ps := NewPacked(bank)
				var evals, toggles [Lanes]uint64
				count := func(c *[Lanes]uint64, mask uint64) {
					for ; mask != 0; mask &= mask - 1 {
						c[bits.TrailingZeros64(mask)]++
					}
				}
				ps.OnGateEvalMask = func(_ netlist.GateID, _ uint64, mask uint64) { count(&evals, mask) }
				ps.OnNetChangeMask = func(_ netlist.NetID, _ uint64, mask uint64, _ uint64) { count(&toggles, mask) }
				s, err := New(nl)
				if err != nil {
					t.Fatal(err)
				}
				vec := make([]bool, s.VectorWidth())
				for w := 0; w < bank.NumWaves(); w++ {
					wv, err := bank.Wave(w)
					if err != nil {
						t.Fatal(err)
					}
					evals, toggles = [Lanes]uint64{}, [Lanes]uint64{}
					if err := ps.ReplayWave(wv); err != nil {
						t.Fatal(err)
					}
					for l := 0; l < wv.Lanes; l++ {
						events, changes := s.Events, s.Toggles
						src.Vector(s.Cycle(), vec)
						if _, err := s.Step(vec); err != nil {
							t.Fatal(err)
						}
						if got, want := evals[l], s.Events-events; got != want {
							t.Fatalf("cycle %d: lane %d evaluated %d gates, scalar %d", s.Cycle()-1, l, got, want)
						}
						if got, want := toggles[l], s.Toggles-changes; got != want {
							t.Fatalf("cycle %d: lane %d changed %d nets, scalar %d", s.Cycle()-1, l, got, want)
						}
						for n := range nl.Nets {
							if got, want := ps.words[n]>>uint(l)&1 == 1, s.Value(netlist.NetID(n)); got != want {
								t.Fatalf("cycle %d net %s: lane %d ends at %v, scalar %v",
									s.Cycle()-1, nl.Nets[n].Name, l, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestPackedGateTruthTables exhaustively checks every combinational gate
// kind's packed evaluation against verilog.GateKind.Eval and the scalar
// EvalGate, with all input combinations loaded as lanes of a single
// 64-lane word (the 6-input gates cover the full 64-row truth table in
// exactly one word). It checks all 16 two-input tables of ttWord, the
// replay's evaluator of one- and two-input gates, the same way, and that
// each such gate's Truth table gives evalPackedGate's word.
func TestPackedGateTruthTables(t *testing.T) {
	// Lane l carries a = bit 0 and b = bit 1 of l mod 4.
	var a, b uint64
	for l := 0; l < Lanes; l++ {
		a |= uint64(l&1) << uint(l)
		b |= uint64(l>>1&1) << uint(l)
	}
	for tt := uint8(0); tt < Wide; tt++ {
		out := ttWord(tt, a, b)
		for l := 0; l < Lanes; l++ {
			if got, want := out>>uint(l)&1, uint64(tt>>uint(l%4)&1); got != want {
				t.Errorf("ttWord(%04b): lane %d (a=%d b=%d) reads %d, want %d", tt, l, l&1, l>>1&1, got, want)
			}
		}
	}

	kinds := []struct {
		name   string
		kind   verilog.GateKind
		inputs []int
	}{
		{"and", verilog.GateAnd, []int{1, 2, 3, 6}},
		{"nand", verilog.GateNand, []int{1, 2, 3, 6}},
		{"or", verilog.GateOr, []int{1, 2, 3, 6}},
		{"nor", verilog.GateNor, []int{1, 2, 3, 6}},
		{"xor", verilog.GateXor, []int{1, 2, 3, 6}},
		{"xnor", verilog.GateXnor, []int{1, 2, 3, 6}},
		{"not", verilog.GateNot, []int{1}},
		{"buf", verilog.GateBuf, []int{1}},
	}
	for _, k := range kinds {
		for _, nIn := range k.inputs {
			t.Run(fmt.Sprintf("%s%d", k.name, nIn), func(t *testing.T) {
				// Nets 0..nIn-1 are the inputs, net nIn the output. Lane l
				// carries input combination l mod 2^nIn; with 6 inputs all
				// 64 combinations sit in one word.
				g := &netlist.Gate{Kind: k.kind, Output: netlist.NetID(nIn)}
				words := make([]uint64, nIn+1)
				combos := 1 << uint(nIn)
				for i := 0; i < nIn; i++ {
					g.Inputs = append(g.Inputs, netlist.NetID(i))
					for l := 0; l < Lanes; l++ {
						words[i] |= uint64((l%combos)>>uint(i)&1) << uint(l)
					}
				}
				out := evalPackedGate(g, words)
				if tt, ok := Truth(g); ok {
					if got := ttWord(tt, words[g.Inputs[0]], words[g.Inputs[nIn-1]]); got != out {
						t.Errorf("ttWord(Truth) = %064b, evalPackedGate %064b", got, out)
					}
				}
				values := make([]bool, nIn+1)
				for l := 0; l < Lanes; l++ {
					for i := 0; i < nIn; i++ {
						values[i] = words[i]>>uint(l)&1 == 1
					}
					got := out>>uint(l)&1 == 1
					if want := k.kind.Eval(values[:nIn]); got != want {
						t.Errorf("lane %d (combo %06b): packed %v, want %v", l, l%combos, got, want)
					}
					if want := EvalGate(g, values); got != want {
						t.Errorf("lane %d: packed %v, scalar %v", l, got, want)
					}
				}
			})
		}
	}
}

// TestPackedDffLatch pins the sequential semantics on a 2-stage DFF
// chain: with d=1 from cycle 0, q1 rises at the end of cycle 1 (one stage
// per cycle, no ripple-through) in the scalar run and in the lanes of a
// replayed wave, whose hook stream equals the scalar one.
func TestPackedDffLatch(t *testing.T) {
	src := `module m(input clk, input d, output q1);
  wire q0;
  dff f0(q0, d, clk);
  dff f1(q1, q0, clk);
endmodule
`
	nl := elaborate(t, src, "m").Netlist
	q1 := nl.POs[0]
	ones := vecFunc(func(_ uint64, buf []bool) { buf[0] = true })
	const cycles = 3
	waves, err := Record(nl, ones, cycles, []netlist.NetID{q1})
	if err != nil {
		t.Fatal(err)
	}
	if got := waves[q1]; !reflect.DeepEqual(got, []bool{false, true, true}) {
		t.Fatalf("scalar q1 after each cycle = %v, want [false true true]", got)
	}
	wantEvals, wantChanges := scalarTrace(t, nl, ones, cycles)
	gotEvals, gotChanges, ps := replayTrace(t, nl, ones, cycles)
	if got := ps.words[q1]; got != 0b110 {
		t.Fatalf("packed q1 after each lane's cycle = %03b, want 110", got)
	}
	diffTrace(t, "evals", gotEvals, wantEvals)
	diffTrace(t, "changes", gotChanges, wantChanges)
}

// packedEvent is a (cycle, delta, id) key for exact trace comparison.
type packedEvent struct {
	cycle uint64
	delta uint64
	id    int32
}

// TestWaveBankReplayMatchesScalarTrace is the guarantee the packed
// cluster model stands on: replaying a WaveBank reproduces the scalar
// run's hook stream exactly — every (cycle, delta, gate) evaluation and
// every (cycle, delta, net) change, no more and no fewer.
func TestWaveBankReplayMatchesScalarTrace(t *testing.T) {
	for name, nl := range equivCircuits(t) {
		t.Run(name, func(t *testing.T) {
			const cycles = 300 // 4 waves + a ragged 44-lane tail
			src := RandomVectors{Seed: 42}
			wantEvals, wantChanges := scalarTrace(t, nl, src, cycles)
			gotEvals, gotChanges, _ := replayTrace(t, nl, src, cycles)
			diffTrace(t, "evals", gotEvals, wantEvals)
			diffTrace(t, "changes", gotChanges, wantChanges)
		})
	}
}

// scalarTrace runs the scalar Simulator over `cycles` vectors of src and
// counts its hook stream by (cycle, delta, gate or net).
func scalarTrace(t *testing.T, nl *netlist.Netlist, src VectorSource, cycles uint64) (evals, changes map[packedEvent]int) {
	t.Helper()
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	evals = make(map[packedEvent]int)
	changes = make(map[packedEvent]int)
	s.OnGateEval = func(g netlist.GateID, tm VTime) {
		evals[packedEvent{tm / s.DeltaRange, tm % s.DeltaRange, int32(g)}]++
	}
	s.OnNetChange = func(n netlist.NetID, tm VTime, _ bool) {
		changes[packedEvent{tm / s.DeltaRange, tm % s.DeltaRange, int32(n)}]++
	}
	if _, err := s.Run(src, cycles); err != nil {
		t.Fatal(err)
	}
	return evals, changes
}

// replayTrace records the same run into a WaveBank, replays every wave
// and counts the mask hooks lane by lane, keyed as scalarTrace keys the
// scalar hooks. It returns the engine as the last wave left it.
func replayTrace(t *testing.T, nl *netlist.Netlist, src VectorSource, cycles uint64) (evals, changes map[packedEvent]int, ps *PackedSimulator) {
	t.Helper()
	bank, err := NewWaveBank(nl, src, cycles)
	if err != nil {
		t.Fatal(err)
	}
	ps = NewPacked(bank)
	evals = make(map[packedEvent]int)
	changes = make(map[packedEvent]int)
	var base uint64
	ps.OnGateEvalMask = func(g netlist.GateID, delta uint64, mask uint64) {
		for l := 0; l < Lanes; l++ {
			if mask>>uint(l)&1 == 1 {
				evals[packedEvent{base + uint64(l), delta, int32(g)}]++
			}
		}
	}
	ps.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
		// Scalar q changes carry the next cycle's delta-0 timestamp;
		// packed reports them with delta 0 during the producing cycle.
		// Shift to the scalar keying.
		cycleShift := uint64(0)
		if delta == 0 && nl.Nets[n].Driver != netlist.NoGate {
			cycleShift = 1
		}
		for l := 0; l < Lanes; l++ {
			if mask>>uint(l)&1 == 1 {
				changes[packedEvent{base + uint64(l) + cycleShift, delta, int32(n)}]++
			}
		}
	}
	for w := 0; w < bank.NumWaves(); w++ {
		wv, err := bank.Wave(w)
		if err != nil {
			t.Fatal(err)
		}
		base = wv.Base
		if err := ps.ReplayWave(wv); err != nil {
			t.Fatal(err)
		}
	}
	return evals, changes, ps
}

// stepRecorder is the reference the WaveBank is checked against: the
// recorder the bank used before it scouted with settle. It steps a scalar
// Simulator cycle by cycle and transposes the net-change stream into
// lane-words: the wave starts as a broadcast of the first cycle's entry
// state, every change the simulator reports overwrites the remaining
// higher lanes, and a change applied at the next cycle's delta 0 (a
// latched q toggle) is pending in the next lane.
func stepRecorder(t *testing.T, nl *netlist.Netlist, src VectorSource, cycles uint64) []*Wave {
	t.Helper()
	scout, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	vecBuf := make([]bool, scout.VectorWidth())
	var waves []*Wave
	for base := uint64(0); base < cycles; base += Lanes {
		lanes := Lanes
		if rem := cycles - base; rem < Lanes {
			lanes = int(rem)
		}
		w := &Wave{
			Base:  base,
			Lanes: lanes,
			Words: make([]uint64, len(nl.Nets)),
			Vecs:  make([]uint64, scout.VectorWidth()),
		}
		for n, v := range scout.values {
			if v {
				w.Words[n] = ^uint64(0)
			}
		}
		pend := make(map[netlist.NetID]uint64)
		for _, n := range scout.changedNets {
			pend[n] |= 1
		}
		for l := 0; l < lanes; l++ {
			cyc := base + uint64(l)
			src.Vector(cyc, vecBuf)
			for i, v := range vecBuf {
				if v {
					w.Vecs[i] |= 1 << uint(l)
				}
			}
			// hi covers the lanes after l: any change during cycle `cyc`
			// updates the entry state of every later cycle in the wave.
			var hi uint64
			if l+1 < Lanes {
				hi = ^uint64(0) << uint(l+1)
			}
			// A change applied at the next cycle's delta 0 is a latched q
			// toggle: it must also mark sinks dirty at the next lane's delta 0.
			qTime := (cyc + 1) * scout.DeltaRange
			nextLane := l + 1
			scout.OnNetChange = func(n netlist.NetID, t VTime, v bool) {
				if v {
					w.Words[n] |= hi
				} else {
					w.Words[n] &^= hi
				}
				if t == qTime && nextLane < Lanes {
					pend[n] |= 1 << uint(nextLane)
				}
			}
			if _, err := scout.Step(vecBuf); err != nil {
				t.Fatal(err)
			}
		}
		w.Pending = make([]MaskedNet, 0, len(pend))
		for n, m := range pend {
			w.Pending = append(w.Pending, MaskedNet{Net: n, Mask: m})
		}
		sort.Slice(w.Pending, func(i, j int) bool { return w.Pending[i].Net < w.Pending[j].Net })
		waves = append(waves, w)
	}
	return waves
}

// populated returns w with the lanes at or above w.Lanes cleared. Those
// lanes are never replayed (ReplayWave runs LaneMask(w.Lanes) only): the
// Step recorder left the state after the last cycle in them, the settle
// scout leaves zeros.
func populated(w *Wave) Wave {
	m := LaneMask(w.Lanes)
	out := Wave{Base: w.Base, Lanes: w.Lanes, Words: make([]uint64, len(w.Words)), Vecs: w.Vecs}
	for n, x := range w.Words {
		out.Words[n] = x & m
	}
	for _, p := range w.Pending {
		if p.Mask&m != 0 {
			out.Pending = append(out.Pending, MaskedNet{Net: p.Net, Mask: p.Mask & m})
		}
	}
	return out
}

// TestWaveBankMatchesStepRecorder holds the settle scout to the recorder
// it replaced: over the four workload families, a random hierarchical
// circuit with gates of up to four inputs, a circuit with gates of up to
// nine (the scout's chains), and bank lengths on both sides of a wave
// boundary, every wave equals the Step recorder's in Base, Lanes, Words,
// Pending and Vecs — built in order, and built by two goroutines asking
// at once.
func TestWaveBankMatchesStepRecorder(t *testing.T) {
	fixtures := map[string]*gen.Circuit{
		"randhier": gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes:        3,
			GatesPerModule:     8,
			InstancesPerModule: 2,
			TopInstances:       3,
			PIs:                6,
			Seed:               12,
			DFFFraction:        0.3,
		}),
		"viterbi":    gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}),
		"fir":        gen.FIR(gen.FIRConfig{Taps: 6, W: 6, Seed: 5}),
		"multiplier": gen.Multiplier(5),
		"wide":       gen.WideGates(60, 3),
		"soc": gen.ViterbiSoC(gen.SoCConfig{
			Channels:      2,
			Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
			ScramblerBits: 12,
			CRCBits:       8,
		}),
	}
	for name, c := range fixtures {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nl := ed.Netlist
		if name == "randhier" && !slices.ContainsFunc(nl.Gates, func(g netlist.Gate) bool { return len(g.Inputs) > 2 && !g.Kind.Sequential() }) {
			t.Fatal("randhier: no gate of more than two inputs, so the scout's 3- and 4-input tables go unexercised")
		}
		src := RandomVectors{Seed: 11}
		for _, cycles := range []uint64{1, 63, 64, 65, 200} {
			t.Run(fmt.Sprintf("%s/%d", name, cycles), func(t *testing.T) {
				want := stepRecorder(t, nl, src, cycles)
				newBank := func() *WaveBank {
					b, err := NewWaveBank(nl, src, cycles)
					if err != nil {
						t.Fatal(err)
					}
					if b.NumWaves() != len(want) {
						t.Fatalf("bank has %d waves, recorder %d", b.NumWaves(), len(want))
					}
					return b
				}
				check := func(b *WaveBank, i int) {
					got, err := b.Wave(i)
					if err != nil {
						t.Errorf("wave %d: %v", i, err)
						return
					}
					if g, w := populated(got), populated(want[i]); !reflect.DeepEqual(g, w) {
						t.Errorf("wave %d diverges from the Step recorder:\n got %+v\nwant %+v", i, g, w)
					}
				}

				b := newBank()
				for i := range want {
					check(b, i)
				}

				b = newBank()
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range want {
							check(b, i)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

func diffTrace(t *testing.T, what string, got, want map[packedEvent]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s at cycle %d delta %d id %d: packed %d, scalar %d",
				what, k.cycle, k.delta, k.id, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Fatalf("%s at cycle %d delta %d id %d: packed %d, scalar %d",
				what, k.cycle, k.delta, k.id, n, want[k])
		}
	}
}

// TestTwoPhaseDeltaSemantics pins the documented pure-unit-delay rule on
// a reconvergent pulse generator: x feeds both an inverter and an AND
// with the inverter's output. On x: 0→1 the AND must see (x=1, old
// inv=1) at delta 0 and emit a one-delta glitch pulse — under one-phase
// (apply-immediately) semantics the glitch's presence would depend on
// evaluation order.
func TestTwoPhaseDeltaSemantics(t *testing.T) {
	src := `module m(input x, output y);
  wire nx;
  not g0(nx, x);
  and g1(y, x, nx);
endmodule
`
	ed := elaborate(t, src, "m")
	nl := ed.Netlist
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	y := nl.POs[0]
	var yChanges []VTime
	s.OnNetChange = func(n netlist.NetID, tm VTime, _ bool) {
		if n == y {
			yChanges = append(yChanges, tm%s.DeltaRange)
		}
	}
	if _, err := s.Step([]bool{false}); err != nil { // settle at x=0
		t.Fatal(err)
	}
	if _, err := s.Step([]bool{true}); err != nil { // rising edge
		t.Fatal(err)
	}
	// The glitch: y rises at delta 1 (AND saw x=1, nx=1 at delta 0) and
	// falls at delta 2 (nx's change landed at delta 1).
	if len(yChanges) != 2 || yChanges[0] != 1 || yChanges[1] != 2 {
		t.Fatalf("glitch trace = %v, want [1 2] (two-phase unit delay)", yChanges)
	}
	if s.Value(y) {
		t.Fatal("y must settle back to 0")
	}

	// A replayed wave of the same two cycles makes the same glitch: its
	// hook stream is the scalar one.
	rise := vecFunc(func(c uint64, buf []bool) { buf[0] = c == 1 })
	wantEvals, wantChanges := scalarTrace(t, nl, rise, 2)
	gotEvals, gotChanges, _ := replayTrace(t, nl, rise, 2)
	diffTrace(t, "evals", gotEvals, wantEvals)
	diffTrace(t, "changes", gotChanges, wantChanges)
	for _, delta := range []uint64{1, 2} {
		if gotChanges[packedEvent{1, delta, int32(y)}] != 1 {
			t.Fatalf("replayed glitch: no change of y at cycle 1 delta %d", delta)
		}
	}
}

// TestWaveTraceMatchesReplay holds a bank's traces to the replay they
// record: for every circuit family and every wave of a ragged 130-cycle
// run, a shared bank's, an unfiltered private bank's and a filtered
// private bank's trace give each gate the evaluation count per lane, and
// each logged net the (delta, lanes) changes, that hooks on a plain replay
// of the same wave count. The filtered bank logs exactly the nets it was
// given, and the shared bank replays each wave once however often it is
// asked.
func TestWaveTraceMatchesReplay(t *testing.T) {
	type netChange struct {
		delta uint32
		mask  uint64
	}
	for name, nl := range equivCircuits(t) {
		t.Run(name, func(t *testing.T) {
			const cycles = 130
			src := RandomVectors{Seed: 5}
			ref, err := NewWaveBank(nl, src, cycles)
			if err != nil {
				t.Fatal(err)
			}
			ps := NewPacked(ref)
			evals := make([][Lanes]uint64, len(nl.Gates))
			changes := make([][]netChange, len(nl.Nets))
			ps.OnGateEvalMask = func(g netlist.GateID, _ uint64, mask uint64) {
				for ; mask != 0; mask &= mask - 1 {
					evals[g][bits.TrailingZeros64(mask)]++
				}
			}
			ps.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
				changes[n] = append(changes[n], netChange{uint32(delta), mask})
			}

			rng := rand.New(rand.NewSource(int64(len(name))))
			filter := make([]bool, len(nl.Nets))
			for n := range filter {
				filter[n] = rng.Intn(2) == 0
			}
			shared, err := NewWaveBank(nl, src, cycles)
			if err != nil {
				t.Fatal(err)
			}
			all, err := NewPrivateWaveBank(nl, src, cycles, nil)
			if err != nil {
				t.Fatal(err)
			}
			some, err := NewPrivateWaveBank(nl, src, cycles, filter)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ref.NumWaves(); i++ {
				w, err := ref.Wave(i)
				if err != nil {
					t.Fatal(err)
				}
				clear(evals)
				clear(changes)
				if err := ps.ReplayWave(w); err != nil {
					t.Fatal(err)
				}
				for _, bank := range []struct {
					label string
					b     *WaveBank
					log   func(netlist.NetID) bool
				}{
					{"shared", shared, func(netlist.NetID) bool { return true }},
					{"private", all, func(netlist.NetID) bool { return true }},
					{"filtered", some, func(n netlist.NetID) bool { return filter[n] }},
				} {
					tr, err := bank.b.Trace(i)
					if err != nil {
						t.Fatal(err)
					}
					if tr.Base != w.Base || tr.Lanes != w.Lanes {
						t.Fatalf("%s wave %d: trace of base %d, %d lanes; wave %d, %d", bank.label, i, tr.Base, tr.Lanes, w.Base, w.Lanes)
					}
					for g := range nl.Gates {
						var c LaneCounter
						c.AddPlanes(tr.Evals[g*tr.Planes : (g+1)*tr.Planes])
						for l := 0; l < Lanes; l++ {
							if got, want := c.Count(l), evals[g][l]; got != want {
								t.Fatalf("%s wave %d gate %d lane %d: %d evaluations traced, replay made %d", bank.label, i, g, l, got, want)
							}
						}
					}
					for n := range nl.Nets {
						net := &nl.Nets[n]
						var want []netChange
						if net.Driver != netlist.NoGate && len(net.Sinks) > 0 && bank.log(netlist.NetID(n)) {
							want = changes[n]
						}
						deltas, masks := tr.Changes(netlist.NetID(n))
						var got []netChange
						for j, m := range masks {
							got = append(got, netChange{deltas[j], m})
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s wave %d net %s: traced %v, replay changed %v", bank.label, i, net.Name, got, want)
						}
					}
				}
				if _, err := shared.Trace(i); err != nil {
					t.Fatal(err)
				}
				if _, err := shared.Wave(i); err == nil {
					t.Fatalf("shared wave %d served after its trace released it", i)
				}
			}
			if got, want := shared.Replays(), shared.NumWaves(); got != want {
				t.Fatalf("shared bank replayed %d times for %d waves", got, want)
			}
		})
	}
}
