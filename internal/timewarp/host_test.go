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
// cluster 1 either waits for each of them (direct delivery) or is rolled
// back by each of them it ran ahead of.
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

// TestRollbackRestoresItsTargetCycle steps the one-way pair by hand, so the
// schedule is exact. The cluster that can be rolled back writes one record
// per cycle it executes, a rollback to cycle tc restores the start of tc
// itself and publishes tc — so a quiescent minimum never falls
// under the established GVT (the fuzz campaign's old "GVT regression",
// seeds 13 and 34, was a cluster publishing a restored cycle below its
// target) — and a target without a record of its own, below the fossil line
// or not, is an error. The sender cannot be rolled back: it keeps no
// rollback state, and an event delivered to it fails the run. The
// receiver runs ahead of its sender because the transport is not direct.
func TestRollbackRestoresItsTargetCycle(t *testing.T) {
	nl, parts := togglePair(t)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: 20,
		Transport: syncDelivery,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := h.clusters[0], h.clusters[1]
	if a.undo != nil || b.undo == nil {
		t.Fatalf("sender saves state: %v, receiver saves state: %v; want false, true", a.undo != nil, b.undo != nil)
	}
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
	s := sample{progress: make([]uint64, 2), complete: true}
	poll := func() verdict {
		h.sample(&s)
		return q.step(s)
	}

	// b runs ahead, a catches up to cycle 6; its first event, the latch of
	// cycle 0, is for cycle 1 and takes b back there. b
	// re-runs: one record per executed cycle, the restored one's rewritten.
	// Everything quiet, GVT = 6.
	run(b, 8)
	run(a, 6)
	deliver(b)
	if b.cycle != 1 || h.progress[1].Load() != 1 {
		t.Fatalf("b stands at cycle %d and published %d after a rollback to cycle 1", b.cycle, h.progress[1].Load())
	}
	run(b, 8)
	if got := b.stats.checkpoints.Load(); got != 8+7 || len(b.undo.hist) != 8 {
		t.Errorf("b wrote %d records executing cycles 0-7 and again 1-7 and holds %d, want %d and 8", got, len(b.undo.hist), 8+7)
	}
	poll()
	if v := poll(); !v.frozen || v.gvt != 6 {
		t.Fatalf("setup: frozen=%v gvt=%d, want a quiescent GVT of 6", v.frozen, v.gvt)
	}

	// a executes cycle 6; its latch event rolls b back to 7, at the GVT's
	// heels.
	run(a, 7)
	deliver(b)
	if b.cycle != 7 || h.progress[1].Load() != 7 {
		t.Errorf("b stands at cycle %d and published %d after a rollback to cycle 7", b.cycle, h.progress[1].Load())
	}
	poll()
	if v := poll(); !v.frozen || v.gvt != 7 {
		t.Errorf("after the rollback: frozen=%v gvt=%d, want a quiescent GVT of 7", v.frozen, v.gvt)
	}
	if len(q.violations) != 0 {
		t.Fatalf("false invariant violation: %v", q.violations)
	}

	// A target whose own record is gone is an error, not a restore of the
	// one before it.
	b.undo.hist, b.undo.top = b.undo.hist[:6], 6
	if err := b.rollback(6, 0); err == nil || !strings.Contains(err.Error(), "has no checkpoint") {
		t.Errorf("rollback to a cycle without a record: error %v", err)
	}
	b.undo.trim(5)
	if err := b.rollback(4, 0); err == nil || !strings.Contains(err.Error(), "fossil-collected") {
		t.Errorf("rollback below the fossil line: error %v", err)
	}

	// The sender kept nothing to roll back to, and says so when asked.
	if a.undo != nil || a.stats.checkpoints.Load() != 0 {
		t.Errorf("sender keeps an undo log: %v, and wrote %d records; want neither",
			a.undo != nil, a.stats.checkpoints.Load())
	}
	stray := event{T: 3, Net: b.prog.tab[0].Out, Val: true, Src: 1, Seq: 1}
	if err := a.absorb([]comm.Message{stray}); err == nil || !strings.Contains(err.Error(), "misrouted") {
		t.Errorf("event delivered to a cluster without remote inputs: error %v, want it refused as misrouted", err)
	}
}

// TestOneWaySenderRunsInConstantMemory is the same pair free-running under
// the chaos transport for 2,000 cycles. The sender still sends an event a
// cycle, yet ends the run having written no record and logged nothing; the
// receiver, rolled back by every event it ran ahead of, holds one record per
// cycle from its fossil line to the last; the waveforms are the sequential
// simulator's. Over direct delivery the receiver waits for the sender
// instead: it writes no record either, is never rolled back, and ends the
// run holding at most the one event for the cycle after the last, its
// queue's capacity bounded by the optimism window, not by the run. And a
// single cluster, which nothing can roll back either, writes no record at
// all.
func TestOneWaySenderRunsInConstantMemory(t *testing.T) {
	nl, parts := togglePair(t)
	const cycles, seed = 2000, 1
	state := sim.StateNets(nl)
	h, err := newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		Transport:    comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 16, StallFor: 200 * time.Microsecond}),
		StallTimeout: 30 * time.Second,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalGVT != cycles || len(res.InvariantViolations) != 0 {
		t.Errorf("FinalGVT %d, violations %v; want %d and none", res.FinalGVT, res.InvariantViolations, cycles)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), "one-way")

	a, b := h.clusters[0], h.clusters[1]
	if st := res.PerCluster[0]; st.Messages < cycles-1 || st.Checkpoints != 0 || st.Rollbacks != 0 {
		t.Errorf("sender: %d messages, %d records, %d rollbacks; want an event a cycle and nothing else",
			st.Messages, st.Checkpoints, st.Rollbacks)
	}
	if a.undo != nil {
		t.Error("sender ends with an undo log; want none")
	}
	st := res.PerCluster[1]
	if st.Rollbacks == 0 || st.Checkpoints < cycles+st.Rollbacks {
		t.Errorf("receiver: %d rollbacks, %d records written; want some, and a record per cycle and one more per rollback", st.Rollbacks, st.Checkpoints)
	}
	if got := b.undo.fossil + uint64(len(b.undo.hist)); got != cycles {
		t.Errorf("receiver: %d records from the fossil line %d, want one per cycle up to the last of %d", len(b.undo.hist), b.undo.fossil, cycles)
	}

	h, err = newHost(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		StallTimeout: 30 * time.Second,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = h.run(); err != nil {
		t.Fatal(err)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), "one-way, direct")
	b = h.clusters[1]
	if st := res.Stats; st.Messages < cycles-1 || st.Checkpoints != 0 || st.Rollbacks != 0 || st.AntiMessages != 0 {
		t.Errorf("direct: %d messages, %d records, %d rollbacks, %d anti-messages; want an event a cycle and nothing else",
			st.Messages, st.Checkpoints, st.Rollbacks, st.AntiMessages)
	}
	if !b.conservative || b.undo != nil || len(b.inq) > 1 || cap(b.inq) > 4*window {
		t.Errorf("direct receiver: waits %v, undo log %v, holds %d events in a queue of capacity %d; want a waiting receiver without a log, holding at most 1 in at most %d",
			b.conservative, b.undo != nil, len(b.inq), cap(b.inq), 4*window)
	}

	single, err := Run(Config{
		NL: nl, GateParts: make([]int32, len(nl.Gates)), K: 1,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if single.Stats.Checkpoints != 0 {
		t.Errorf("K=1: %d records written; want none", single.Stats.Checkpoints)
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
		{"observe out of range", func(c *Config) { c.Observe = []netlist.NetID{0, netlist.NetID(len(nl.Nets))} }, "Observe names net"},
		{"observe negative", func(c *Config) { c.Observe = []netlist.NetID{-1} }, "Observe names net -1"},
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
