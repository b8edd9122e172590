package clustersim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
)

// packedWorkloads is the four-workload pool of the acceptance
// differential: every family the paper's experiments run.
func packedWorkloads(t *testing.T) map[string]*elab.Design {
	t.Helper()
	out := make(map[string]*elab.Design)
	add := func(name string, c *gen.Circuit) {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ed
	}
	add("viterbi", gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}))
	add("fir", gen.FIR(gen.FIRConfig{Taps: 6, W: 6, Seed: 5}))
	add("multiplier", gen.Multiplier(5))
	add("soc", gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	}))
	return out
}

// TestPackedModelBitIdentical is the clustersim acceptance differential:
// for every workload and k ∈ {2, 4}, optimistic and synchronous, the
// packed trace generator must reproduce the scalar generator's Result
// exactly — every float, every count, every per-machine slice.
func TestPackedModelBitIdentical(t *testing.T) {
	for name, ed := range packedWorkloads(t) {
		for _, k := range []int{2, 4} {
			pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 1})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			for _, synchronous := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k%d/sync=%v", name, k, synchronous), func(t *testing.T) {
					run := func(mode PackedMode) *Result {
						res, err := Run(Config{
							NL: ed.Netlist, GateParts: pr.GateParts, K: k,
							Vectors: sim.RandomVectors{Seed: 7}, Cycles: 150,
							Synchronous: synchronous, Packed: mode,
						})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					scalar := run(PackedOff)
					packed := run(PackedOn)
					if !reflect.DeepEqual(scalar, packed) {
						t.Fatalf("packed result diverges from scalar:\nscalar: %+v\npacked: %+v",
							scalar, packed)
					}
				})
			}
		}
	}
}

// TestPackedSharedWaveBank proves the campaign-sharing contract: many
// runs at different k over one shared bank return exactly what the scalar
// generator, a run's own filtered private bank and an unfiltered private
// bank return, the shared bank replays each wave once for all of them, and
// a bank that is too short or from another netlist is rejected.
func TestPackedSharedWaveBank(t *testing.T) {
	ed := packedWorkloads(t)["viterbi"]
	const cycles = 130 // ragged tail: 2 waves + 2 lanes
	bank, err := sim.NewWaveBank(ed.Netlist, sim.RandomVectors{Seed: 7}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4} {
		pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		base := Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: k,
			Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles,
		}
		run := func(cfg Config) *Result {
			t.Helper()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		scalar := base
		scalar.Packed = PackedOff
		want := run(scalar)
		unfiltered := base
		if unfiltered.Waves, err = sim.NewPrivateWaveBank(ed.Netlist, base.Vectors, cycles, nil); err != nil {
			t.Fatal(err)
		}
		shared := base
		shared.Waves = bank
		for label, cfg := range map[string]Config{"filtered private": base, "unfiltered private": unfiltered, "shared": shared} {
			if got := run(cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: %s-bank result diverges from the scalar generator's:\nscalar: %+v\n%s: %+v", k, label, want, label, got)
			}
		}
	}
	if got := bank.Replays(); got != bank.NumWaves() {
		t.Fatalf("shared bank replayed %d times for %d waves over three runs", got, bank.NumWaves())
	}

	// A shared bank shorter than the run must be rejected, not misused.
	pr, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 2,
		Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles + 1, Waves: bank,
	})
	if err == nil {
		t.Fatal("short shared bank accepted")
	}
	// And one built from a different netlist.
	other := packedWorkloads(t)["multiplier"]
	otherBank, err := sim.NewWaveBank(other.Netlist, sim.RandomVectors{Seed: 7}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 2,
		Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles, Waves: otherBank,
	})
	if err == nil {
		t.Fatal("foreign-netlist bank accepted")
	}
}

// TestPackedRunAllocs holds one packed run over a prebuilt wave bank — the
// regime of a campaign, where every (k, b) point replays one bank — on the
// SoC at k=4 for 2,000 cycles to at most 140 allocations (124 when the
// bound was set; 38,705 while the event heap boxed every event it pushed,
// 48,456 while every cycle's bundles were a map; the count does not depend
// on scheduling).
func TestPackedRunAllocs(t *testing.T) {
	ed := packedWorkloads(t)["soc"]
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 2000
	bank, err := sim.NewWaveBank(ed.Netlist, sim.RandomVectors{Seed: 1}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	// Trace every wave outside the counted run.
	for i := 0; i < bank.NumWaves(); i++ {
		if _, err := bank.Trace(i); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(Config{
			NL: ed.Netlist, GateParts: pr.GateParts, K: 4,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: cycles, Waves: bank,
		}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations a run", allocs)
	if allocs > 140 {
		t.Errorf("packed run (SoC, K=4, %d cycles): %.0f allocations, want at most 140", cycles, allocs)
	}
}

// fuzzDesigns caches the elaborated circuits FuzzPackedModel draws, keyed
// by family and size.
var fuzzDesigns sync.Map // [2]int → *elab.Design

// fuzzCircuit returns one of the gen families' circuits: family picks the
// family, size a small configuration of it.
func fuzzCircuit(family, size uint8) (*elab.Design, error) {
	key := [2]int{int(family % 5), int(size % 4)}
	if ed, ok := fuzzDesigns.Load(key); ok {
		return ed.(*elab.Design), nil
	}
	n := key[1]
	var c *gen.Circuit
	switch key[0] {
	case 0:
		c = gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes: 3, GatesPerModule: 8, InstancesPerModule: 2, TopInstances: 3,
			PIs: 6, Seed: int64(n + 1), DFFFraction: 0.3,
		})
	case 1:
		c = gen.LFSR(8+4*n, nil)
	case 2:
		c = gen.Multiplier(2 + n)
	case 3:
		c = gen.FIR(gen.FIRConfig{Taps: 2 + n, W: 4, Seed: int64(n)})
	default:
		c = gen.Viterbi(gen.ViterbiConfig{K: 3, W: 3 + n%2, TB: 4 + 2*n})
	}
	ed, err := c.Elaborate()
	if err != nil {
		return nil, err
	}
	fuzzDesigns.Store(key, ed)
	return ed, nil
}

// FuzzPackedModel holds the wave trace fold to the scalar trace
// generator: on a gen family circuit, a random partition with k in 1..6
// and 1–200 cycles, optimistic or synchronous, Run over the run's own
// filtered private bank and over a shared bank returns exactly the
// PackedOff Result.
func FuzzPackedModel(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), uint8(2), uint8(130), false)
	f.Add(uint8(1), uint8(2), int64(2), uint8(1), uint8(64), false)
	f.Add(uint8(2), uint8(3), int64(3), uint8(6), uint8(1), true)
	f.Add(uint8(3), uint8(1), int64(4), uint8(3), uint8(65), false)
	f.Add(uint8(4), uint8(2), int64(5), uint8(4), uint8(200), true)
	f.Fuzz(func(t *testing.T, family, size uint8, seed int64, k, cycles uint8, synchronous bool) {
		ed, err := fuzzCircuit(family, size)
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		kk := 1 + int(k%6)
		n := 1 + uint64(cycles)%200
		rng := rand.New(rand.NewSource(seed))
		parts := make([]int32, len(nl.Gates))
		for i := range parts {
			parts[i] = int32(rng.Intn(kk))
		}
		cfg := Config{
			NL: nl, GateParts: parts, K: kk,
			Vectors: sim.RandomVectors{Seed: seed}, Cycles: n, Synchronous: synchronous,
		}
		run := func(cfg Config) *Result {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		scalar := cfg
		scalar.Packed = PackedOff
		want := run(scalar)
		if got := run(cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("private bank diverges from the scalar generator:\nscalar:  %+v\nprivate: %+v", want, got)
		}
		shared := cfg
		if shared.Waves, err = sim.NewWaveBank(nl, cfg.Vectors, n); err != nil {
			t.Fatal(err)
		}
		if got := run(shared); !reflect.DeepEqual(got, want) {
			t.Fatalf("shared bank diverges from the scalar generator:\nscalar: %+v\nshared: %+v", want, got)
		}
	})
}
