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

// TestOneWaySenderRunsInConstantMemory runs the one-way pair free for 2,000
// cycles, under the chaos transport and over direct delivery. The sender
// sends an event a cycle; the receiver waits for each watermark, so it
// ends the run holding at most the one event for the cycle after the last,
// and the window that holds the sender back keeps its queue's capacity
// bounded by the window, not by the run. Under chaos some of those waits
// outlast the sender's publish because the link still held the
// watermark; over direct delivery none does.
func TestOneWaySenderRunsInConstantMemory(t *testing.T) {
	nl, parts := togglePair(t)
	const cycles, seed = 2000, 1
	state := sim.StateNets(nl)
	for _, tc := range []struct {
		name string
		tr   comm.TransportFactory
	}{
		{"chaos", comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 16, StallFor: 200 * time.Microsecond})},
		{"direct", nil},
	} {
		h, err := newHost(Config{
			NL: nl, GateParts: parts, K: 2,
			Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
			Transport: tc.tr, StallTimeout: 30 * time.Second,
		}, "tw", nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalGVT != cycles || len(res.InvariantViolations) != 0 {
			t.Errorf("%s: FinalGVT %d, violations %v; want %d and none", tc.name, res.FinalGVT, res.InvariantViolations, cycles)
		}
		compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), "one-way, "+tc.name)
		if st := res.PerCluster[0]; st.Messages < cycles-1 || st.LinkWaits != 0 {
			t.Errorf("%s: sender sent %d events and waited %d times; want an event a cycle and no wait", tc.name, st.Messages, st.LinkWaits)
		}
		b := h.clusters[1]
		if len(b.inq) > 1 || cap(b.inq) > 4*window {
			t.Errorf("%s: receiver holds %d events in a queue of capacity %d; want at most 1 in at most %d",
				tc.name, len(b.inq), cap(b.inq), 4*window)
		}
		if waits := res.PerCluster[1].LinkWaits; (tc.tr == nil) != (waits == 0) {
			t.Errorf("%s: receiver waited on a held watermark %d times", tc.name, waits)
		}
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
