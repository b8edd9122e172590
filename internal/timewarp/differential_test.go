package timewarp

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/netlist"
	"repro/internal/partition"
)

// TestDifferentialWorkloadsVsSequential pins the Time Warp kernel against
// the sequential reference on every deterministic workload family at
// k ∈ {2, 4} over design-driven partitions — the always-on tier-1 version
// of the fuzz harness's differential check. Any kernel or partitioner
// regression that changes committed waveforms fails here without needing
// a fuzz campaign.
func TestDifferentialWorkloadsVsSequential(t *testing.T) {
	for _, tc := range distWorkloads() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ed, err := tc.c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4} {
				res, err := partition.Multiway(ed, partition.Options{
					K: k, B: 10, Seed: 17, Restarts: 2,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				st := runBoth(t, ed, res.GateParts, k, tc.cycles, 29)
				t.Logf("%s k=%d: msgs=%d rollbacks=%d maxStragglerDepth=%d",
					tc.name, k, st.Messages, st.Rollbacks, st.MaxStragglerDepth)
			}
		})
	}
}

// TestOneWayCutMatchesSequential runs partitions whose cut is one-way:
// cluster 0 is the fan-in closure of one gate (every input of a cluster-0
// gate comes from a PI, a constant or cluster 0), and the other gates are
// spread at random over clusters 1–3. Cluster 0 can be sent nothing, so it
// keeps no rollback record, and it sends its settled boundary nets stamped
// one delta into the cycle; its readers roll back among themselves as usual. Under
// direct and chaos delivery every primary output and flip-flop must match
// the sequential reference, cluster 0 must keep no rollback record, and it
// must have sent gate-driven events — the sweep's own sends, not only its
// latch's.
func TestOneWayCutMatchesSequential(t *testing.T) {
	for _, tc := range distWorkloads() {
		if tc.name != "viterbi" && tc.name != "soc" {
			continue
		}
		ed, err := tc.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		parts := oneWayParts(t, nl, 4, 7)
		for _, tr := range []struct {
			name string
			f    comm.TransportFactory
		}{{"direct", nil}, {"chaos", comm.Chaos(comm.ChaosConfig{Seed: 5, StallEvery: 16})}} {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				var gateDriven atomic.Uint64
				res := runBothCfg(t, ed, parts, 4, tc.cycles, 3, func(c *Config) {
					c.Transport = tapSends(tr.f, func(e event) {
						if e.Src == 0 && !e.Anti && !nl.Gates[nl.Nets[e.Net].Driver].Kind.Sequential() {
							gateDriven.Add(1)
						}
					})
					c.StallTimeout = 20 * time.Second
				})
				st := res.PerCluster[0]
				if st.Checkpoints != 0 || st.Rollbacks != 0 || gateDriven.Load() == 0 {
					t.Errorf("cluster 0: %d records, %d rollbacks, %d gate-driven events sent; want 0, 0 and some",
						st.Checkpoints, st.Rollbacks, gateDriven.Load())
				}
				t.Logf("cluster 0 sent %d events, %d gate-driven; the run rolled back %d times",
					st.Messages, gateDriven.Load(), res.Stats.Rollbacks)
			})
		}
	}
}

// oneWayParts puts the fan-in closure of the first combinational gate whose
// closure holds a fifth to three fifths of nl's gates in cluster 0, and every
// other gate in one of clusters 1..k-1 at random.
func oneWayParts(t *testing.T, nl *netlist.Netlist, k int, seed int64) []int32 {
	t.Helper()
	in := make([]bool, len(nl.Gates))
	for gi := range nl.Gates {
		if nl.Gates[gi].Kind.Sequential() {
			continue
		}
		clear(in)
		in[gi] = true
		n, stack := 1, []netlist.GateID{netlist.GateID(gi)}
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, net := range nl.Gates[g].Inputs {
				if d := nl.Nets[net].Driver; d != netlist.NoGate && !in[d] {
					in[d] = true
					n++
					stack = append(stack, d)
				}
			}
		}
		if 5*n < len(nl.Gates) || 5*n > 3*len(nl.Gates) {
			continue
		}
		rng := rand.New(rand.NewSource(seed))
		parts := make([]int32, len(nl.Gates))
		for g := range parts {
			if !in[g] {
				parts[g] = 1 + int32(rng.Intn(k-1))
			}
		}
		return parts
	}
	t.Fatal("no gate's fan-in closure holds a fifth to three fifths of the design")
	return nil
}

// tapSends wraps a transport factory (nil: direct delivery) so that seen
// is called on every event delivered, before the delivery.
func tapSends(f comm.TransportFactory, seen func(event)) comm.TransportFactory {
	return func(k int, deliver comm.DeliverFunc) comm.Transport {
		tap := func(dst int, m comm.Message) {
			evs, _ := m.(batch)
			if e, ok := m.(event); ok {
				evs = batch{e}
			}
			for _, e := range evs {
				seen(e)
			}
			deliver(dst, m)
		}
		if f == nil {
			return directTap(tap)
		}
		return f(k, tap)
	}
}

// directTap delivers synchronously inside Send, as a nil factory does.
type directTap comm.DeliverFunc

func (d directTap) Send(_, dst int, m comm.Message) { d(dst, m) }
func (directTap) Close()                            {}
