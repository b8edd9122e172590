package timewarp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// togglePair is a two-cluster design with one-way traffic: cluster 0
// holds a flip-flop that toggles every cycle, cluster 1 registers it. So
// cluster 0 never rolls back and sends exactly one event per cycle, and
// cluster 1 is rolled back by each of them it ran ahead of.
func togglePair(t *testing.T) (*netlist.Netlist, []int32) {
	t.Helper()
	c := &gen.Circuit{Name: "toggle", Top: "toggle", Source: `
module toggle (input clk, output out);
  wire q, nq, r;
  not n0 (nq, q);
  dff f0 (q, nq, clk);
  dff f1 (r, q, clk);
  buf ob (out, r);
endmodule
`}
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	parts := make([]int32, len(nl.Gates))
	for gi := range nl.Gates {
		name := nl.Nets[nl.Gates[gi].Output].Name
		if !strings.HasSuffix(name, "q") { // q and nq stay in cluster 0
			parts[gi] = 1
		}
	}
	return nl, parts
}

// TestRollbackPastSparseCheckpointKeepsGVT is the deterministic form of
// the fuzz campaign's "GVT regression" flake (seeds 13 and 34). With
// CheckpointEvery > 1 a rollback to a cycle at or above GVT restores a
// checkpoint below it; a cluster that published the restored cycle made
// the next quiescent minimum fall under the established GVT, although
// nothing it can still send is stamped below the rollback target. The
// clusters are stepped by hand, so the schedule is exact.
func TestRollbackPastSparseCheckpointKeepsGVT(t *testing.T) {
	nl, parts := togglePair(t)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 20, CheckpointEvery: 5,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := h.clusters[0], h.clusters[1]
	run := func(c *cluster, until uint64) {
		t.Helper()
		for c.cycle < until {
			if err := c.processCycle(c.cycle); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver := func(c *cluster) {
		t.Helper()
		msgs := c.ep.TryRecvAll()
		if err := c.absorb(msgs); err != nil {
			t.Fatal(err)
		}
		h.absorbed.Add(uint64(len(msgs)))
	}
	q := newQuiescence(2, 20, 0, 0, time.Time{})
	s := sample{progress: make([]uint64, 2), complete: true, drained: true}
	poll := func() verdict {
		h.sample(&s)
		return q.step(s)
	}

	// b runs ahead, a catches up to cycle 6, b absorbs a's events and
	// re-runs: checkpoints at 0 and 5, everything quiet, GVT = 6.
	run(b, 8)
	run(a, 6)
	deliver(b)
	run(b, 8)
	poll()
	if v := poll(); !v.frozen || v.gvt != 6 {
		t.Fatalf("setup: frozen=%v gvt=%d, want a quiescent GVT of 6", v.frozen, v.gvt)
	}
	h.gvt.Store(6)

	// a executes cycle 6; its latch event is stamped at the start of cycle
	// 7 and rolls b back to 7 — through the checkpoint at cycle 5.
	run(a, 7)
	deliver(b)
	if b.cycle != 5 {
		t.Fatalf("b restored cycle %d, want the sparse checkpoint at 5", b.cycle)
	}
	if got := h.progress[1].Load(); got != 7 {
		t.Errorf("b published %d after a rollback to cycle 7, want 7: cycles 5 and 6 replay unchanged and send nothing", got)
	}
	poll()
	if v := poll(); !v.frozen || v.gvt != 7 {
		t.Errorf("after the rollback: frozen=%v gvt=%d, want a quiescent GVT of 7", v.frozen, v.gvt)
	}
	if len(q.violations) != 0 {
		t.Fatalf("false invariant violation: %v", q.violations)
	}

	// While b coasts the floor holds; an input landing inside the coasted
	// window lowers it, because re-execution diverges from there.
	run(b, 6)
	if got := h.progress[1].Load(); got != 7 {
		t.Errorf("b published %d while coasting at cycle 6, want 7", got)
	}
	if v := poll(); !v.active || !v.frozen {
		t.Errorf("coasting under a constant published cycle: active=%v frozen=%v, want quiescent for GVT yet active for the stall clock", v.active, v.frozen)
	}
	late := event{T: 6*b.deltaRange + 1, Net: a.prog.out[a.prog.nComb], Val: true, Src: 0, Seq: 1 << 20}
	if err := b.absorb([]comm.Message{late}); err != nil {
		t.Fatal(err)
	}
	if got := h.progress[1].Load(); got != 6 {
		t.Errorf("b published %d after an input at cycle 6 arrived mid-coast, want 6", got)
	}
	run(b, 9)
	if got := h.progress[1].Load(); got != 9 {
		t.Errorf("b published %d past the floor, want its cycle 9", got)
	}
}

// TestRunRejectsBadConfig: every malformed Config is an error from Run,
// never a panic in the caller or in a cluster goroutine.
func TestRunRejectsBadConfig(t *testing.T) {
	nl, parts := togglePair(t)
	good := Config{NL: nl, GateParts: parts, K: 2, Vectors: sim.RandomVectors{Seed: 1}, Cycles: 4}
	if _, err := Run(good); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	outOfRange := append([]int32(nil), parts...)
	outOfRange[0] = 2
	negative := append([]int32(nil), parts...)
	negative[0] = -1
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero value", func(c *Config) { *c = Config{} }, "NL is nil"},
		{"nil netlist", func(c *Config) { c.NL = nil }, "NL is nil"},
		{"nil vectors", func(c *Config) { c.Vectors = nil }, "Vectors is nil"},
		{"k zero", func(c *Config) { c.K = 0 }, "K must be >= 1"},
		{"k negative", func(c *Config) { c.K = -3 }, "K must be >= 1"},
		{"short gate parts", func(c *Config) { c.GateParts = parts[:1] }, "GateParts covers 1 gates"},
		{"nil gate parts", func(c *Config) { c.GateParts = nil }, "GateParts covers 0 gates"},
		{"part out of range", func(c *Config) { c.GateParts = outOfRange }, "assigned to cluster 2"},
		{"part negative", func(c *Config) { c.GateParts = negative }, "assigned to cluster -1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.edit(&cfg)
			res, err := Run(cfg)
			if err == nil || res != nil {
				t.Fatalf("Run accepted a bad config (result %v)", res)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The coordinator applies the partition checks before it listens.
	for _, spec := range []*DistSpec{
		{Source: "x", Top: "x", K: 0},
		{Source: "x", Top: "x", K: 2, GateParts: outOfRange},
	} {
		if co, err := NewCoordinator(CoordConfig{Spec: spec, Workers: 1}); err == nil {
			co.ln.Close()
			t.Errorf("NewCoordinator accepted spec k=%d parts=%v", spec.K, spec.GateParts)
		}
	}
}
