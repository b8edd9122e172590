package timewarp

import (
	"math/rand"
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
				t.Logf("%s k=%d: msgs=%d", tc.name, k, st.Messages)
			}
		})
	}
}

// TestOneWayCutMatchesSequential runs partitions whose cut is one-way:
// cluster 0 is the fan-in closure of one gate (every input of a cluster-0
// gate comes from a PI, a constant or cluster 0), and the other gates are
// spread at random over clusters 1–3. Cluster 0 can be sent nothing, so it
// waits for nobody; its readers hold copies of the combinational cones
// they read of it, so its frames carry only its flip-flops' values, and
// they wait for its watermarks. Over direct delivery and under chaos every
// primary output and flip-flop must match the sequential reference.
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
				res := runBothCfg(t, ed, parts, 4, tc.cycles, 3, func(c *Config) {
					c.Transport = tr.f
					c.StallTimeout = 20 * time.Second
				})
				st := res.PerCluster[0]
				if st.LinkWaits != 0 || st.Messages == 0 {
					t.Errorf("cluster 0: %d waits, %d changed values shipped; want none and some: it has no sender, the readers hold copies",
						st.LinkWaits, st.Messages)
				}
				t.Logf("cluster 0 shipped %d changed values; the readers waited on a held watermark %d times", st.Messages, res.Stats.LinkWaits)
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

// syncDelivery is a transport that delivers inside Send and Mark, as
// direct delivery does: the in-process way to send every event and every
// watermark through a Config.Transport without the chaos schedule.
func syncDelivery(k int, deliver comm.DeliverFunc, mark comm.MarkFunc) comm.Transport {
	return syncTransport{k, deliver, mark}
}

type syncTransport struct {
	k       int
	deliver comm.DeliverFunc
	mark    comm.MarkFunc
}

func (d syncTransport) Send(dst int, f *comm.Frame) { d.deliver(dst, f) }
func (syncTransport) Close()                        {}

func (d syncTransport) Mark(src int, through uint64) {
	for dst := 0; dst < d.k; dst++ {
		if dst != src {
			d.mark(src, dst, through)
		}
	}
}
