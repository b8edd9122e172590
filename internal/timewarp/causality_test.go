package timewarp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/obs/causality"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// blameDesign builds a two-cluster circuit with strictly one-directional
// traffic: a DFF shift register owned by cluster 1 feeds an XOR-reduction
// readout owned by cluster 0, and nothing flows back, so every edge of the
// critical path runs from cluster 1 to cluster 0.
func blameDesign(t *testing.T) (*netlist.Netlist, []int32) {
	t.Helper()
	const n = 12
	var b strings.Builder
	fmt.Fprintf(&b, "module blamechain (input clk, input d, output out);\n")
	fmt.Fprintf(&b, "  wire [%d:0] q;\n", n-1)
	fmt.Fprintf(&b, "  dff f0 (q[0], d, clk);\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "  dff f%d (q[%d], q[%d], clk);\n", i, i, i-1)
	}
	fmt.Fprintf(&b, "  wire t1;\n  xor x1 (t1, q[0], q[1]);\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  wire t%d;\n  xor x%d (t%d, t%d, q[%d]);\n", i, i, i, i-1, i)
	}
	fmt.Fprintf(&b, "  buf ob (out, t%d);\n", n-1)
	fmt.Fprintf(&b, "endmodule\n")

	d, err := verilog.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	ed, err := elab.Elaborate(d, "blamechain")
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	parts := make([]int32, len(nl.Gates))
	for gi := range nl.Gates {
		if nl.Gates[gi].Kind.Sequential() {
			parts[gi] = 1
		}
	}
	return nl, parts
}

// TestCausalityCriticalPathBounds checks the committed-event critical
// path against its two defining bounds on the same crafted circuit: it
// can never exceed the measured sequential event count (perfect
// parallelism bound) and never undercut the busiest cluster's committed
// work (no machine can finish before its own serial work).
func TestCausalityCriticalPathBounds(t *testing.T) {
	nl, parts := blameDesign(t)
	const cycles = 200

	for seed := int64(1); seed <= 3; seed++ {
		rec := causality.New()
		res, err := Run(Config{
			NL: nl, GateParts: parts, K: 2,
			Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles,
			Transport: comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 4}),
			Causality: rec,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		an := rec.Analyze()

		seq, err := sim.New(nl)
		if err != nil {
			t.Fatal(err)
		}
		seqEvents, err := seq.Run(sim.RandomVectors{Seed: seed}, cycles)
		if err != nil {
			t.Fatal(err)
		}

		if an.CritPath == 0 {
			t.Fatalf("seed %d: zero critical path", seed)
		}
		if an.CritPath > seqEvents {
			t.Errorf("seed %d: critical path %d exceeds sequential cost %d",
				seed, an.CritPath, seqEvents)
		}
		maxCommitted := uint64(0)
		for _, st := range res.PerCluster {
			maxCommitted = max(maxCommitted, st.Events)
		}
		if an.CritPath < maxCommitted {
			t.Errorf("seed %d: critical path %d below busiest cluster's committed %d",
				seed, an.CritPath, maxCommitted)
		}
		if an.MaxClusterCost != maxCommitted {
			t.Errorf("seed %d: MaxClusterCost %d != per-cluster committed max %d",
				seed, an.MaxClusterCost, maxCommitted)
		}
		if an.BoundSpeedup <= 0 {
			t.Errorf("seed %d: BoundSpeedup = %f", seed, an.BoundSpeedup)
		}
		// The segments must tile a path ending at the last cycle and sum
		// to the critical-path cost.
		sum := uint64(0)
		for _, s := range an.CritSegments {
			sum += s.Cost
		}
		if sum != an.CritPath {
			t.Errorf("seed %d: segment costs sum to %d, want %d\n%s",
				seed, sum, an.CritPath, an.String())
		}
		t.Logf("seed %d: seq=%d crit=%d busiest=%d bound=%.2fx",
			seed, seqEvents, an.CritPath, maxCommitted, an.BoundSpeedup)
	}
}

// TestCausalityDisabledLeavesNoTrace pins the zero-cost-when-off
// contract's observable half: a run without a recorder completes, and
// Analyze on a fresh recorder is empty.
func TestCausalityDisabledLeavesNoTrace(t *testing.T) {
	nl, parts := blameDesign(t)
	res, err := Run(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 3}, Cycles: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalGVT != 50 {
		t.Errorf("FinalGVT = %d, want 50", res.FinalGVT)
	}
	an := causality.New().Analyze()
	if an.CritPath != 0 || an.SeqCost != 0 || len(an.CritSegments) != 0 {
		t.Errorf("unattached Analyze = %+v, want empty", an)
	}
}
