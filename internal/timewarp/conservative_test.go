package timewarp

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestConservativeRunNeverRollsBack runs the benchmark's design-driven
// decoder split k=2 and the gen families at k ∈ {2, 3, 4} over random
// partitions, each over direct delivery and under the chaos transport.
// Every cluster with senders waits for their watermarks, so each run
// commits the sequential simulator's waveforms over the design's whole
// registered state (runBothCfg) and meets no straggler. Over direct
// delivery no wait outlasts a publish; under chaos some must, across the
// set, or the links held nothing and the wait went untested.
func TestConservativeRunNeverRollsBack(t *testing.T) {
	type run struct {
		name   string
		ed     *elab.Design
		parts  []int32
		k      int
		cycles uint64
	}
	ed, parts := serialCut(t)
	runs := []run{{"viterbi design-driven", ed, parts, 2, 100}}
	for _, tc := range distWorkloads() {
		ed, err := tc.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3, 4} {
			runs = append(runs, run{fmt.Sprintf("%s random k=%d", tc.name, k), ed, randomParts(ed.Netlist, k, int64(k)), k, tc.cycles})
		}
	}
	var chaosWaits uint64
	for i, r := range runs {
		seed := int64(i + 1)
		res := runBothCfg(t, r.ed, r.parts, r.k, r.cycles, seed, func(c *Config) { c.StallTimeout = 30 * time.Second })
		if w := res.Stats.LinkWaits; w != 0 {
			t.Errorf("%s, direct: %d waits on a watermark held after its publish; want none", r.name, w)
		}
		res = runBothCfg(t, r.ed, r.parts, r.k, r.cycles, seed, func(c *Config) {
			c.Transport = comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 16})
			c.StallTimeout = 30 * time.Second
		})
		chaosWaits += res.Stats.LinkWaits
	}
	if chaosWaits == 0 {
		t.Errorf("the chaos twins of %d runs never waited on a held watermark: the links held nothing", len(runs))
	}
}

// TestConservativeClusterFailsOnAStraggler is the straggler oracle: a
// cluster keeps nothing to roll back to, so a frame for a cycle it has
// executed is a broken invariant that fails the run, never a silently
// wrong answer. The one-way pair over direct delivery: the receiver is
// stepped by hand past its wait to cycle 4, the sender executes cycle 0,
// whose frame is for cycle 1, and marks a watermark far ahead; the
// receiver's own loop then takes the frame and fails.
func TestConservativeClusterFailsOnAStraggler(t *testing.T) {
	nl, parts := togglePair(t)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 8,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := h.clusters[0], h.clusters[1]
	if len(a.prog.senders) != 0 || !slices.Equal(b.prog.senders, []int32{0}) {
		t.Fatalf("senders %v and %v; want none and cluster 0", a.prog.senders, b.prog.senders)
	}
	for b.cycle < 4 {
		if err := b.processCycle(b.cycle); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.processCycle(0); err != nil {
		t.Fatal(err)
	}
	a.ep.Mark(8)
	if err := b.run(); err == nil || !strings.Contains(err.Error(), "invariant violated: straggler") {
		t.Errorf("a straggler reached a cluster that waits for its senders: error %v, want the run failed", err)
	}
	h.abort()
}

// TestParkedClusterWakesOnAbort: a cluster whose sender never marks a
// watermark spins for one own cycle and sleeps in AwaitHeard; aborting the
// run wakes it, and its loop returns.
func TestParkedClusterWakesOnAbort(t *testing.T) {
	nl, parts := togglePair(t)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 8,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	b := h.clusters[1]
	done := make(chan error, 1)
	go func() { done <- b.run() }() // cluster 0 never runs: b waits at cycle 1
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("the receiver returned %v without its sender's watermark", err)
	default:
	}
	h.abort()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("aborted run: %v, want a plain exit", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the sleeping receiver did not wake on abort")
	}
}

// replicaFamilies are the circuits FuzzReplicas partitions, each elaborated
// once per process.
var replicaFamilies = []func() (*elab.Design, error){
	sync.OnceValues(gen.LFSR(16, nil).Elaborate),
	sync.OnceValues(gen.Multiplier(5).Elaborate),
	sync.OnceValues(gen.FIR(gen.FIRConfig{Taps: 6, W: 5, Seed: 3}).Elaborate),
	sync.OnceValues(gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 6}).Elaborate),
	sync.OnceValues(gen.RandomHierarchical(gen.RandHierConfig{
		ModuleTypes: 6, GatesPerModule: 15, InstancesPerModule: 2, TopInstances: 6,
		PIs: 8, Seed: 5, DFFFraction: 0.25,
	}).Elaborate),
	sync.OnceValues(gen.ViterbiSoC(gen.SoCConfig{
		Channels: 2, Viterbi: gen.ViterbiConfig{K: 3, W: 4, TB: 4}, ScramblerBits: 8, CRCBits: 8,
	}).Elaborate),
}

// FuzzReplicas draws a gen family, a cluster count and a partition seed,
// partitions the circuit design-driven (even seeds, where the partitioner
// can honour k) or at random, and compiles every cluster. Every net a
// cluster reads that another cluster drives must be a flip-flop's output,
// and a cluster's senders must be exactly the owners of what it reads
// (FuzzLinkFrames checks the links that carry those outputs).
func FuzzReplicas(f *testing.F) {
	for fam := range replicaFamilies {
		f.Add(uint8(fam), uint8(0), int64(fam))
		f.Add(uint8(fam), uint8(2), int64(fam+1))
	}
	f.Fuzz(func(t *testing.T, family, kDraw uint8, seed int64) {
		ed, err := replicaFamilies[int(family)%len(replicaFamilies)]()
		if err != nil {
			t.Fatal(err)
		}
		nl, k := ed.Netlist, 2+int(kDraw)%5
		parts := randomParts(nl, k, seed)
		if seed%2 == 0 {
			if pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: seed}); err == nil {
				parts = pr.GateParts
			}
		}
		checkRemoteReads(t, nl, parts, k)
	})
}

// checkRemoteReads compiles every cluster of a k-way partition and checks
// what crosses the cut against what the programs evaluate: every net a
// record's cone or an own flip-flop reads that another cluster drives is a
// flip-flop's output, and a cluster's senders are exactly the owners of
// those flip-flops.
func checkRemoteReads(t *testing.T, nl *netlist.Netlist, parts []int32, k int) {
	t.Helper()
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	progs, machs := compileAll(sw, parts, k, nil)
	for id, p := range progs {
		m := &machs[id]
		code := &sim.Program{Tab: m.Records(), Base: m.Base, Nets: m.Nets}
		var gates []netlist.GateID // the records' cones and own flip-flops
		for i := range code.Tab {
			if code.Nets[int(code.Base)+i] != sim.NoNet {
				gates = append(gates, coneOf(t, fmt.Sprintf("cluster %d", id), nl, code, i)...)
			}
		}
		for gi := range nl.Gates {
			if parts[gi] == int32(id) && nl.Gates[gi].Kind.Sequential() {
				gates = append(gates, netlist.GateID(gi))
			}
		}
		evaluated := make([]bool, len(nl.Gates))
		for _, g := range gates {
			evaluated[g] = true
		}
		owners := map[int32]bool{}
		for _, g := range gates {
			for _, n := range nl.Gates[g].Inputs {
				d := nl.Nets[n].Driver
				if d == netlist.NoGate || evaluated[d] {
					continue
				}
				if !nl.Gates[d].Kind.Sequential() {
					t.Fatalf("cluster %d: gate %s reads %s, which cluster %d's combinational gate %s drives, and holds no copy of it",
						id, nl.Gates[g].Path, nl.Nets[n].Name, parts[d], nl.Gates[d].Path)
				}
				owners[parts[d]] = true
			}
		}
		if len(owners) != len(p.senders) {
			t.Fatalf("cluster %d: senders %v, reads flip-flops of clusters %v", id, p.senders, owners)
		}
		for _, s := range p.senders {
			if !owners[s] {
				t.Fatalf("cluster %d: senders %v, reads flip-flops of clusters %v", id, p.senders, owners)
			}
		}
	}
}
