package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// stepMirror drives the scalar lane mirrors exactly as StepBatch assigns
// vectors to lanes: vector w*64+j of the call goes to lane j of wave w.
func stepMirror(t *testing.T, scalars []*Simulator, batch [][]bool) {
	t.Helper()
	for w := 0; w*Lanes < len(batch); w++ {
		for j := 0; j < Lanes && w*Lanes+j < len(batch); j++ {
			if _, err := scalars[j].Step(batch[w*Lanes+j]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// comparePacked checks every lane of ps against its scalar mirror:
// cycle count, event/toggle counters, and the full net state.
func comparePacked(t *testing.T, name string, ps *PackedSimulator, scalars []*Simulator, full bool) {
	t.Helper()
	nets := len(ps.NL.Nets)
	for l := 0; l < Lanes; l++ {
		s := scalars[l]
		if got, want := ps.Cycle(l), s.Cycle(); got != want {
			t.Fatalf("%s lane %d: cycle %d, want %d", name, l, got, want)
		}
		if got, want := ps.LaneEvents(l), s.Events; got != want {
			t.Fatalf("%s lane %d: events %d, want %d", name, l, got, want)
		}
		if got, want := ps.LaneToggles(l), s.Toggles; got != want {
			t.Fatalf("%s lane %d: toggles %d, want %d", name, l, got, want)
		}
		if !full {
			continue
		}
		for n := 0; n < nets; n++ {
			if got, want := ps.Value(l, netlist.NetID(n)), s.Value(netlist.NetID(n)); got != want {
				t.Fatalf("%s lane %d net %s: packed %v, scalar %v",
					name, l, ps.NL.Nets[n].Name, got, want)
			}
		}
	}
}

// TestPackedLaneEquivalence is the headline property: for every circuit
// family and batch size (1, 63, 64, 65 — ragged tails and wrap), lane i
// of the PackedSimulator is bit-identical to a scalar Simulator fed
// exactly the vector stream that landed in lane i, over 1000 vectors.
func TestPackedLaneEquivalence(t *testing.T) {
	const totalVectors = 1000
	for name, nl := range equivCircuits(t) {
		for _, batchSize := range []int{1, 63, 64, 65} {
			t.Run(fmt.Sprintf("%s/batch%d", name, batchSize), func(t *testing.T) {
				ps, err := NewPacked(nl)
				if err != nil {
					t.Fatal(err)
				}
				scalars := make([]*Simulator, Lanes)
				for l := range scalars {
					if scalars[l], err = New(nl); err != nil {
						t.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(int64(len(name)*1000 + batchSize)))
				width := ps.VectorWidth()
				sent := 0
				for sent < totalVectors {
					n := batchSize
					if sent+n > totalVectors {
						n = totalVectors - sent
					}
					batch := make([][]bool, n)
					for i := range batch {
						v := make([]bool, width)
						for b := range v {
							v[b] = rng.Intn(2) == 1
						}
						batch[i] = v
					}
					if err := ps.StepBatch(batch); err != nil {
						t.Fatal(err)
					}
					stepMirror(t, scalars, batch)
					sent += n
					// Counters every batch; the full-state sweep is saved
					// for checkpoints to keep the B=1 case fast.
					comparePacked(t, name, ps, scalars, sent == totalVectors || sent%256 < batchSize)
				}
			})
		}
	}
}

// TestPackedMixedRaggedSchedule stresses persistent state across an
// adversarial schedule of ragged and wrapping batch sizes on a
// DFF-carrying circuit: lanes advance at different rates, pending q
// changes must be consumed only by the lanes that step.
func TestPackedMixedRaggedSchedule(t *testing.T) {
	nl := equivCircuits(t)["lfsr"]
	ps, err := NewPacked(nl)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*Simulator, Lanes)
	for l := range scalars {
		if scalars[l], err = New(nl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	width := ps.VectorWidth()
	for _, size := range []int{64, 10, 64, 3, 65, 1, 128, 7, 63} {
		batch := make([][]bool, size)
		for i := range batch {
			v := make([]bool, width)
			for b := range v {
				v[b] = rng.Intn(2) == 1
			}
			batch[i] = v
		}
		// Snapshot the lanes that must not move.
		activeLanes := size
		if activeLanes > Lanes {
			activeLanes = Lanes
		}
		var before [Lanes][]bool
		for l := activeLanes; l < Lanes; l++ {
			before[l] = make([]bool, len(nl.Nets))
			ps.LaneValues(l, before[l])
		}
		if err := ps.StepBatch(batch); err != nil {
			t.Fatal(err)
		}
		stepMirror(t, scalars, batch)
		for l := activeLanes; l < Lanes; l++ {
			after := make([]bool, len(nl.Nets))
			ps.LaneValues(l, after)
			for n := range after {
				if after[n] != before[l][n] {
					t.Fatalf("size %d: inactive lane %d net %d changed", size, l, n)
				}
			}
		}
		comparePacked(t, "lfsr-mixed", ps, scalars, true)
	}
}

// TestPackedGateTruthTables exhaustively checks every combinational gate
// kind against verilog.GateKind.Eval and the scalar EvalGate, with all
// input combinations loaded as lanes of a single 64-lane word (the
// 6-input gates cover the full 64-row truth table in exactly one word).
func TestPackedGateTruthTables(t *testing.T) {
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
				var sb strings.Builder
				fmt.Fprintf(&sb, "module m(output y")
				for i := 0; i < nIn; i++ {
					fmt.Fprintf(&sb, ", input i%d", i)
				}
				fmt.Fprintf(&sb, ");\n  %s g0(y", k.name)
				for i := 0; i < nIn; i++ {
					fmt.Fprintf(&sb, ", i%d", i)
				}
				fmt.Fprintf(&sb, ");\nendmodule\n")
				ed := elaborate(t, sb.String(), "m")
				nl := ed.Netlist
				ps, err := NewPacked(nl)
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := New(nl)
				if err != nil {
					t.Fatal(err)
				}
				if ps.VectorWidth() != nIn {
					t.Fatalf("vector width %d, want %d", ps.VectorWidth(), nIn)
				}
				// Lane l carries input combination l mod 2^nIn; with 6
				// inputs all 64 combinations sit in one word.
				combos := 1 << uint(nIn)
				batch := make([][]bool, Lanes)
				for l := 0; l < Lanes; l++ {
					v := make([]bool, nIn)
					for b := 0; b < nIn; b++ {
						v[b] = (l%combos)>>uint(b)&1 == 1
					}
					batch[l] = v
				}
				if err := ps.StepBatch(batch); err != nil {
					t.Fatal(err)
				}
				y := nl.POs[0]
				for l := 0; l < Lanes; l++ {
					// The netlist gate's input order must drive the truth
					// table, not the port order.
					g := &nl.Gates[nl.Nets[y].Driver]
					in := make([]bool, len(g.Inputs))
					for i, netID := range g.Inputs {
						in[i] = ps.Value(l, netID)
					}
					want := k.kind.Eval(in)
					if got := ps.Value(l, y); got != want {
						t.Errorf("lane %d (combo %06b): packed %v, want %v", l, l%combos, got, want)
					}
					if _, err := scalar.Step(batch[l]); err != nil {
						t.Fatal(err)
					}
					if got, want := ps.Value(l, y), scalar.Value(y); got != want {
						t.Errorf("lane %d: packed %v, scalar %v", l, got, want)
					}
				}
			})
		}
	}
}

// TestPackedDffLatch pins the sequential semantics on a 2-stage DFF
// chain: q must shift one stage per cycle (no ripple-through), per lane.
func TestPackedDffLatch(t *testing.T) {
	src := `module m(input clk, input d, output q1);
  wire q0;
  dff f0(q0, d, clk);
  dff f1(q1, q0, clk);
endmodule
`
	ed := elaborate(t, src, "m")
	nl := ed.Netlist
	ps, err := NewPacked(nl)
	if err != nil {
		t.Fatal(err)
	}
	q1 := nl.POs[0]
	// Lane l sees d=1 from cycle 0; q1 must become 1 only after cycle 2.
	batch := make([][]bool, Lanes)
	for l := range batch {
		batch[l] = []bool{true}
	}
	for cycle := 1; cycle <= 3; cycle++ {
		if err := ps.StepBatch(batch); err != nil {
			t.Fatal(err)
		}
		want := cycle >= 2
		for l := 0; l < Lanes; l++ {
			if got := ps.Value(l, q1); got != want {
				t.Fatalf("cycle %d lane %d: q1 = %v, want %v", cycle, l, got, want)
			}
		}
	}
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

			// Scalar reference trace.
			s, err := New(nl)
			if err != nil {
				t.Fatal(err)
			}
			wantEvals := make(map[packedEvent]int)
			wantChanges := make(map[packedEvent]int)
			s.OnGateEval = func(g netlist.GateID, tm VTime) {
				wantEvals[packedEvent{tm / s.DeltaRange, tm % s.DeltaRange, int32(g)}]++
			}
			s.OnNetChange = func(n netlist.NetID, tm VTime, _ bool) {
				wantChanges[packedEvent{tm / s.DeltaRange, tm % s.DeltaRange, int32(n)}]++
			}
			if _, err := s.Run(src, cycles); err != nil {
				t.Fatal(err)
			}

			// Packed replay of the recorded waves.
			bank, err := NewWaveBank(nl, src, cycles)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := NewPacked(nl)
			if err != nil {
				t.Fatal(err)
			}
			gotEvals := make(map[packedEvent]int)
			gotChanges := make(map[packedEvent]int)
			var base uint64
			ps.OnGateEvalMask = func(g netlist.GateID, delta uint64, mask uint64) {
				for l := 0; l < Lanes; l++ {
					if mask>>uint(l)&1 == 1 {
						gotEvals[packedEvent{base + uint64(l), delta, int32(g)}]++
					}
				}
			}
			ps.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
				// Scalar q changes carry the next cycle's delta-0
				// timestamp; packed reports them with delta 0 during the
				// producing cycle. Shift to the scalar keying.
				cycleShift := uint64(0)
				if delta == 0 && nl.Nets[n].Driver != netlist.NoGate {
					cycleShift = 1
				}
				for l := 0; l < Lanes; l++ {
					if mask>>uint(l)&1 == 1 {
						gotChanges[packedEvent{base + uint64(l) + cycleShift, delta, int32(n)}]++
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

			diffTrace(t, "evals", gotEvals, wantEvals)
			diffTrace(t, "changes", gotChanges, wantChanges)
		})
	}
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
			w.Words[n] = broadcastWord(v)
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
// it replaced: over the four workload families and bank lengths on both
// sides of a wave boundary, every wave equals the Step recorder's in
// Base, Lanes, Words, Pending and Vecs — built in order, built past a
// discarded prefix, and built by two goroutines asking at once.
func TestWaveBankMatchesStepRecorder(t *testing.T) {
	fixtures := map[string]*gen.Circuit{
		"viterbi":    gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}),
		"fir":        gen.FIR(gen.FIRConfig{Taps: 6, W: 6, Seed: 5}),
		"multiplier": gen.Multiplier(5),
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

				// The scout's state is carried through waves nobody keeps.
				b = newBank()
				last := len(want) - 1
				b.DiscardBelow(last)
				check(b, last)
				if last > 0 {
					if _, err := b.Wave(last - 1); err == nil {
						t.Errorf("wave %d served after DiscardBelow(%d)", last-1, last)
					}
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

	// And the packed engine reproduces the same glitch in every lane.
	ps, err := NewPacked(nl)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]bool, Lanes)
	for l := range batch {
		batch[l] = []bool{false}
	}
	if err := ps.StepBatch(batch); err != nil {
		t.Fatal(err)
	}
	var packedDeltas []uint64
	ps.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
		if n == y && mask == ^uint64(0) {
			packedDeltas = append(packedDeltas, delta)
		}
	}
	for l := range batch {
		batch[l] = []bool{true}
	}
	if err := ps.StepBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(packedDeltas) != 2 || packedDeltas[0] != 1 || packedDeltas[1] != 2 {
		t.Fatalf("packed glitch trace = %v, want [1 2]", packedDeltas)
	}
}
