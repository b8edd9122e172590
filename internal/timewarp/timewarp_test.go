package timewarp

import (
	"math/rand"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// runBoth simulates cycles vectors both sequentially and with the Time
// Warp kernel over the given gate partitioning, and compares the per-cycle
// primary-output waveforms bit for bit.
func runBoth(t *testing.T, ed *elab.Design, gateParts []int32, k int, cycles uint64, seed int64) Stats {
	t.Helper()
	nl := ed.Netlist
	vs := sim.RandomVectors{Seed: seed}

	seq, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[netlist.NetID][]bool, len(nl.POs))
	for _, po := range nl.POs {
		want[po] = make([]bool, cycles)
	}
	buf := make([]bool, seq.VectorWidth())
	for c := uint64(0); c < cycles; c++ {
		vs.Vector(c, buf)
		if _, err := seq.Step(buf); err != nil {
			t.Fatal(err)
		}
		for _, po := range nl.POs {
			want[po][c] = seq.Value(po)
		}
	}

	res, err := Run(Config{
		NL:        nl,
		GateParts: gateParts,
		K:         k,
		Vectors:   vs,
		Cycles:    cycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range nl.POs {
		got, ok := res.Observed[po]
		if !ok {
			t.Fatalf("PO %s not observed", nl.Nets[po].Name)
		}
		for c := uint64(0); c < cycles; c++ {
			if got[c] != want[po][c] {
				t.Fatalf("PO %s cycle %d: timewarp %v, sequential %v (k=%d)",
					nl.Nets[po].Name, c, got[c], want[po][c], k)
			}
		}
	}
	return res.Stats
}

// randomParts assigns gates to k clusters at random — the adversarial
// partitioning for rollback behaviour.
func randomParts(nl *netlist.Netlist, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]int32, len(nl.Gates))
	for i := range parts {
		parts[i] = int32(rng.Intn(k))
	}
	return parts
}

func TestSingleClusterMatchesSequential(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(ed.Netlist.Gates))
	st := runBoth(t, ed, parts, 1, 200, 3)
	if st.Messages != 0 || st.Rollbacks != 0 {
		t.Errorf("single cluster should not communicate: %+v", st)
	}
}

func TestLFSRTwoClusters(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	st := runBoth(t, ed, randomParts(ed.Netlist, 2, 1), 2, 300, 5)
	if st.Messages == 0 {
		t.Error("expected inter-cluster messages on a random bisection")
	}
}

func TestMultiplierClusters(t *testing.T) {
	c := gen.Multiplier(8)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4} {
		runBoth(t, ed, randomParts(ed.Netlist, k, int64(k)), k, 100, 7)
	}
}

func TestViterbiPartitionedMatchesSequential(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	// Use the real design-driven partitioner, as the paper's system does.
	for _, k := range []int{2, 4} {
		res, err := partition.Multiway(ed, partition.Options{K: k, B: 10})
		if err != nil {
			t.Fatal(err)
		}
		st := runBoth(t, ed, res.GateParts, k, 150, 11)
		t.Logf("k=%d: msgs=%d anti=%d rollbacks=%d events=%d rolledback=%d",
			k, st.Messages, st.AntiMessages, st.Rollbacks, st.Events, st.RolledBackEvents)
	}
}

func TestViterbiRandomPartitionStress(t *testing.T) {
	// Random gate scattering maximizes communication and rollbacks.
	c := gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	st := runBoth(t, ed, randomParts(ed.Netlist, 4, 99), 4, 60, 13)
	if st.Messages == 0 {
		t.Error("expected heavy messaging under random partitioning")
	}
}

func TestRunValidation(t *testing.T) {
	c := gen.LFSR(8, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	if _, err := Run(Config{NL: nl, GateParts: nil, K: 2, Vectors: sim.RandomVectors{}, Cycles: 1}); err == nil {
		t.Error("mismatched GateParts should error")
	}
	bad := make([]int32, len(nl.Gates))
	bad[0] = 5
	if _, err := Run(Config{NL: nl, GateParts: bad, K: 2, Vectors: sim.RandomVectors{}, Cycles: 1}); err == nil {
		t.Error("out-of-range cluster should error")
	}
	if _, err := Run(Config{NL: nl, GateParts: make([]int32, len(nl.Gates)), K: 0, Vectors: sim.RandomVectors{}, Cycles: 1}); err == nil {
		t.Error("K=0 should error")
	}
}

func TestSmallWindowStillCorrect(t *testing.T) {
	// A tiny optimism window forces tight coupling; results must not
	// change.
	c := gen.Multiplier(4)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	vs := sim.RandomVectors{Seed: 21}
	seq, err := sim.New(nl)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 80
	want := make([][]bool, cycles)
	buf := make([]bool, seq.VectorWidth())
	for cyc := uint64(0); cyc < cycles; cyc++ {
		vs.Vector(cyc, buf)
		if _, err := seq.Step(buf); err != nil {
			t.Fatal(err)
		}
		row := make([]bool, len(nl.POs))
		for i, po := range nl.POs {
			row[i] = seq.Value(po)
		}
		want[cyc] = row
	}
	res, err := Run(Config{
		NL: nl, GateParts: randomParts(nl, 3, 2), K: 3,
		Vectors: vs, Cycles: cycles, Window: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, po := range nl.POs {
		for cyc := 0; cyc < cycles; cyc++ {
			if res.Observed[po][cyc] != want[cyc][i] {
				t.Fatalf("window=2: PO %s cycle %d mismatch", nl.Nets[po].Name, cyc)
			}
		}
	}
}

func TestSoCPartitionedMatchesSequential(t *testing.T) {
	// Two loosely coupled decoder channels: the k=2 partition should align
	// with channels (few messages); correctness must hold either way.
	c := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Multiway(ed, partition.Options{K: 2, B: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := runBoth(t, ed, res.GateParts, 2, 120, 31)
	t.Logf("soc k=2: cut-aligned msgs=%d rollbacks=%d", st.Messages, st.Rollbacks)
}

func TestRandomHierCircuitsMatchSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := gen.DefaultRandHier
		cfg.Seed = seed
		cfg.TopInstances = 8
		cfg.GatesPerModule = 20
		c := gen.RandomHierarchical(cfg)
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		runBoth(t, ed, randomParts(ed.Netlist, 3, seed), 3, 80, seed)
	}
}
