package timewarp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// runBoth simulates cycles vectors both sequentially and with the Time
// Warp kernel over the given gate partitioning, and compares the per-cycle
// waveforms of the design's whole registered state (sim.StateNets: primary
// outputs and every flip-flop output) bit for bit.
func runBoth(t *testing.T, ed *elab.Design, gateParts []int32, k int, cycles uint64, seed int64) Stats {
	t.Helper()
	return runBothCfg(t, ed, gateParts, k, cycles, seed, func(*Config) {}).Stats
}

// runBothCfg is runBoth with the kernel Config open to the caller, so
// window and transport variants share the one oracle, and the whole Result
// returned. The run must also end clean: no invariant violation, every
// cycle committed.
func runBothCfg(t *testing.T, ed *elab.Design, gateParts []int32, k int, cycles uint64,
	seed int64, mutate func(*Config)) *Result {
	t.Helper()
	nl := ed.Netlist
	state := sim.StateNets(nl)
	cfg := Config{
		NL:        nl,
		GateParts: gateParts,
		K:         k,
		Vectors:   sim.RandomVectors{Seed: seed},
		Cycles:    cycles,
		Observe:   state,
	}
	mutate(&cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvariantViolations) != 0 || res.FinalGVT != cycles {
		t.Fatalf("k=%d: final GVT %d of %d cycles, invariant violations %v", k, res.FinalGVT, cycles, res.InvariantViolations)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), fmt.Sprintf("k=%d", k))
	return res
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
	if st.Messages != 0 || st.LinkWaits != 0 {
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
		t.Logf("k=%d: msgs=%d events=%d", k, st.Messages, st.Events)
	}
}

func TestViterbiRandomPartitionStress(t *testing.T) {
	// Random gate scattering maximizes communication.
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
	t.Logf("soc k=2: cut-aligned msgs=%d", st.Messages)
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

// TestSlotProgramsMatchSequential holds the clusters' slot programs to
// sim.Record on sim.StateNets, K = 1, 2, 3, over two circuits whose gates
// are not all of one or two inputs: a random hierarchical one (gates of
// three and four inputs, one table each) and a wide-gate one (up to nine
// inputs, chains of tables), each split by the design-driven partitioner
// and at random.
func TestSlotProgramsMatchSequential(t *testing.T) {
	for _, c := range []*gen.Circuit{
		gen.RandomHierarchical(gen.RandHierConfig{
			ModuleTypes: 6, GatesPerModule: 20, InstancesPerModule: 2, TopInstances: 8,
			PIs: 10, Seed: 7, DFFFraction: 0.25,
		}),
		gen.WideGates(120, 5),
	} {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		for _, width := range []int{3, 4} {
			if !slices.ContainsFunc(nl.Gates, func(g netlist.Gate) bool { return !g.Kind.Sequential() && len(g.Inputs) == width }) {
				t.Fatalf("%s: no gate of %d inputs", c.Name, width)
			}
		}
		for k := 1; k <= 3; k++ {
			parts := make([]int32, len(nl.Gates))
			if k > 1 {
				res, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				parts = res.GateParts
			}
			t.Run(fmt.Sprintf("%s/k%d/design", c.Name, k), func(t *testing.T) { runBoth(t, ed, parts, k, 150, int64(k)) })
			t.Run(fmt.Sprintf("%s/k%d/random", c.Name, k), func(t *testing.T) {
				runBoth(t, ed, randomParts(nl, k, int64(k)), k, 150, int64(k)+10)
			})
		}
	}
}

func viterbiDesign(t *testing.T) *elab.Design {
	t.Helper()
	ed, err := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

// TestRandomPartitioningOverATransport runs a random partition, traffic
// every way, over a transport that is not the direct one: every event and
// every watermark goes through Transport.Send and Transport.Mark, and the
// waveform oracle checks what each cycle read.
func TestRandomPartitioningOverATransport(t *testing.T) {
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 31), 4, 120, 37, func(c *Config) { c.Transport = syncDelivery }).Stats
	if st.Messages == 0 {
		t.Error("a random 4-way partition sent no event")
	}
}

func TestBatchingCoalesces(t *testing.T) {
	ed := viterbiDesign(t)
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 4, 47), 4, 100, 53, func(c *Config) {}).Stats
	if st.BatchedEvents <= st.Batches {
		t.Errorf("batching never coalesced: %d batches for %d events", st.Batches, st.BatchedEvents)
	}
	t.Logf("mean batch size %.2f (%d/%d)", float64(st.BatchedEvents)/float64(st.Batches), st.BatchedEvents, st.Batches)
}
