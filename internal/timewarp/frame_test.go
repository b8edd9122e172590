package timewarp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// FuzzLinkFrames draws a gen family, a cluster count k in 2..5 and a
// partition seed, partitions the circuit at random and compiles every
// cluster (checkLinks).
func FuzzLinkFrames(f *testing.F) {
	for fam := range replicaFamilies {
		f.Add(uint8(fam), uint8(0), int64(fam))
		f.Add(uint8(fam), uint8(3), int64(fam+7))
	}
	f.Fuzz(func(t *testing.T, family, kDraw uint8, seed int64) {
		ed, err := replicaFamilies[int(family)%len(replicaFamilies)]()
		if err != nil {
			t.Fatal(err)
		}
		nl, k := ed.Netlist, 2+int(kDraw)%4
		checkLinks(t, nl, randomParts(nl, k, seed), k, seed)
	})
}

// checkLinks compiles every cluster of a k-way partition of nl and checks
// its links from both ends. Each sender's list of flip-flops for a
// receiver and that receiver's list of slots for the sender name the same
// nets in the same order; the receiver's lists together are exactly the
// other clusters' flip-flop outputs its records and its latch read
// (remoteReads), each once. And
// a frame round trip — the sender gathers random values of its flip-flops,
// the frame crosses the wire codec and the link, the receiver takes and
// applies it — leaves each slot the receiver reads holding the sender's
// value.
func checkLinks(t *testing.T, nl *netlist.Netlist, parts []int32, k int, seed int64) {
	t.Helper()
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	progs, machs := compileAll(sw, parts, k, nil)
	rng := rand.New(rand.NewSource(seed))
	net := comm.NewNetwork(k)
	for r, rp := range progs {
		want := remoteReads(nl, parts, int32(r), &machs[r])
		got := 0
		for j, s := range rp.senders {
			sp, sm := progs[s], &machs[s] // the sender's flip-flop i's q is its slot i
			i := slices.Index(sp.receivers, int32(r))
			if i < 0 {
				t.Fatalf("cluster %d lists cluster %d among its senders, which does not list it among its receivers", r, s)
			}
			link, in := sp.link(i), rp.inputs(j)
			if len(link) != len(in) || len(link) == 0 {
				t.Fatalf("link %d→%d: %d flip-flops at the sender, %d slots at the receiver", s, r, len(link), len(in))
			}
			for b := range link {
				if n, m := sm.Nets[link[b]], machs[r].Nets[in[b]]; n != m {
					t.Fatalf("link %d→%d bit %d: the sender packs %s, the receiver writes %s", s, r, b, nl.Nets[n].Name, nl.Nets[m].Name)
				}
				if b > 0 && link[b] <= link[b-1] {
					t.Fatalf("link %d→%d: flip-flops %v not ascending", s, r, link)
				}
				if n := sm.Nets[link[b]]; !want[n] {
					t.Fatalf("link %d→%d carries %s, which cluster %d does not read", s, r, nl.Nets[n].Name, r)
				}
			}
			got += len(in)

			// The round trip.
			sc := &cluster{id: s, prog: sp, Machine: *sm}
			sc.Slots = make([]bool, len(sm.Nets))
			for i := range sc.Slots {
				sc.Slots[i] = rng.Intn(2) == 1
			}
			words := make([]uint64, frameWords(len(link)))
			pack(words, sc.Slots, link)
			dst, f, err := decodeFrame(appendFrame(nil, r, &comm.Frame{T: 3, Src: s, Words: words}), k)
			if err != nil || dst != r {
				t.Fatalf("link %d→%d: decoded for cluster %d: %v", s, r, dst, err)
			}
			net.Endpoint(int(s)).Send(dst, f)
			rc := &cluster{id: int32(r), prog: rp, Machine: machs[r], cycle: 3, ep: net.Endpoint(r)}
			rc.Slots = make([]bool, len(rc.Nets))
			if err := rc.apply(3); err != nil {
				t.Fatalf("link %d→%d: %v", s, r, err)
			}
			for b := range link {
				if rc.Slots[in[b]] != sc.Slots[link[b]] {
					t.Fatalf("link %d→%d bit %d (%s): the receiver holds %v, the sender %v",
						s, r, b, nl.Nets[sm.Nets[link[b]]].Name, rc.Slots[in[b]], sc.Slots[link[b]])
				}
			}
			if n, _ := rc.ep.Queued(int(s)); n != 0 || rc.absorbed != 1 {
				t.Fatalf("link %d→%d: %d frames still queued, %d taken; want the applied frame taken", s, r, n, rc.absorbed)
			}
		}
		if got != countTrue(want) {
			t.Fatalf("cluster %d receives %d values, reads %d other clusters' flip-flop outputs", r, got, countTrue(want))
		}
	}
	for s, sp := range progs {
		for _, r := range sp.receivers {
			if !slices.Contains(progs[r].senders, int32(s)) {
				t.Fatalf("cluster %d lists cluster %d among its receivers, which does not list it among its senders", s, r)
			}
		}
	}
}

// TestLinksCarryOnlyWhatIsRead compiles the default decoder split k = 2, 3
// and 4 and the default SoC split k=4 (partition.Multiway, b=10, seed 1),
// with the output ports observed and with nothing observed: every slot a
// cluster's links write is read by one of its records or by its latch.
func TestLinksCarryOnlyWhatIsRead(t *testing.T) {
	for _, tc := range []struct {
		c  *gen.Circuit
		ks []int
	}{
		{gen.Viterbi(gen.DefaultViterbi), []int{2, 3, 4}},
		{gen.ViterbiSoC(gen.DefaultSoC), []int{4}},
	} {
		ed, err := tc.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		sw, err := sim.NewSweep(nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.ks {
			res, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, observe := range [][]netlist.NetID{nl.POs, nil} {
				progs, machs := compileAll(sw, res.GateParts, k, observe)
				for id, p := range progs {
					read := remoteReads(nl, res.GateParts, int32(id), &machs[id])
					unread := 0
					for _, s := range p.inSlot {
						if !read[machs[id].Nets[s]] {
							unread++
						}
					}
					if unread > 0 {
						t.Errorf("%s k=%d, %d nets observed, cluster %d: %d of the %d bits its links carry are read by no record and not latched",
							tc.c.Name, k, len(observe), id, unread, len(p.inSlot))
					}
				}
			}
		}
	}
}

// TestAbsorbRefusesBadFrames walks a receiver's link by hand on the
// one-way pair, whose cluster 1 reads one of cluster 0's flip-flops: a
// cycle takes the front frame stamped for it and leaves a later one
// queued. Then, each on a fresh pair whose sender has marked every cycle,
// the receiver's own loop must fail the run on a frame of the wrong length
// or with a padding bit set (misrouted), on one for a cycle it has
// executed, and on the two faults of a link that is not FIFO and
// exactly-once: a frame delivered twice, even for the last cycle, and two
// frames swapped (stragglers).
func TestAbsorbRefusesBadFrames(t *testing.T) {
	nl, parts := togglePair(t)
	const cycles = 8
	pair := func() (h *host, a, b *cluster) {
		h, err := newHost(Config{NL: nl, GateParts: parts, K: 2, Vectors: sim.RandomVectors{Seed: 1}, Cycles: cycles}, "tw", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.abort)
		return h, h.clusters[0], h.clusters[1]
	}
	_, a, b := pair()
	in := b.prog.inputs(0)
	if len(in) != 1 || !slices.Equal(b.prog.senders, []int32{0}) || !slices.Equal(a.prog.receivers, []int32{1}) {
		t.Fatalf("senders %v, receivers %v, %d values a frame; want cluster 0 sending cluster 1 one", b.prog.senders, a.prog.receivers, len(in))
	}
	a.ep.Send(1, &comm.Frame{T: 0, Src: 0, Words: []uint64{1}})
	a.ep.Send(1, &comm.Frame{T: 1, Src: 0, Words: []uint64{0}})
	if err := b.apply(0); err != nil {
		t.Fatal(err)
	}
	if n, _ := b.ep.Queued(0); !b.Slots[in[0]] || n != 1 || b.absorbed != 1 {
		t.Fatalf("after cycle 0: slot %v, %d frames queued, %d taken; want true, cycle 1's frame alone, 1", b.Slots[in[0]], n, b.absorbed)
	}

	for _, tc := range []struct {
		name  string
		at    uint64 // the cycle the receiver is stepped to first
		stamp []uint64
		words []uint64 // of every frame
		want  string
	}{
		{"wrong length", 0, []uint64{2}, []uint64{0, 0}, "misrouted"},
		{"padding bits", 0, []uint64{2}, []uint64{2}, "padding bits"},
		{"straggler", 3, []uint64{1}, []uint64{1}, "invariant violated: straggler"},
		{"duplicate", 0, []uint64{2, 2}, []uint64{1}, "invariant violated: straggler"},
		{"duplicate of the last cycle's", 0, []uint64{cycles - 1, cycles - 1}, []uint64{1}, "invariant violated: straggler"},
		{"swapped", 0, []uint64{4, 3}, []uint64{1}, "invariant violated: straggler"},
	} {
		_, a, b := pair()
		for b.cycle < tc.at {
			if err := b.processCycle(b.cycle); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range tc.stamp {
			a.ep.Send(1, &comm.Frame{T: st, Src: 0, Words: tc.words})
		}
		a.ep.Mark(cycles)
		if err := b.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLinkFramesArriveInOrder steps three clusters of a randomly cut
// decoder by hand, over a transport that is not the direct one, under a
// random schedule: a cluster executes its next cycle at random once every
// sender's watermark for it has arrived — the wait rule, by hand. Senders
// run ahead of their receivers by many cycles, so frames for several
// cycles wait on a link. Each sender's frames must arrive with strictly
// increasing T, none for a cycle its receiver has executed, and the run
// must commit the sequential simulator's waveforms.
func TestLinkFramesArriveInOrder(t *testing.T) {
	nl := viterbiDesign(t).Netlist
	const k, cycles, seed = 3, 40, 41
	state := sim.StateNets(nl)
	var h *host
	last := map[[2]int32]uint64{} // (dst, src) → T of the last frame seen
	deep := 0                     // deliveries that left a link holding two frames or more
	watched := func(k int, deliver comm.DeliverFunc, mark comm.MarkFunc) comm.Transport {
		return syncTransport{k, func(dst int, f *comm.Frame) {
			key := [2]int32{int32(dst), f.Src}
			if t0, ok := last[key]; ok && f.T <= t0 {
				t.Fatalf("cluster %d: frame for cycle %d from cluster %d after one for cycle %d", dst, f.T, f.Src, t0)
			}
			if c := h.clusters[dst]; f.T < c.cycle {
				t.Fatalf("cluster %d at cycle %d: frame for cycle %d from cluster %d", dst, c.cycle, f.T, f.Src)
			}
			last[key] = f.T
			deliver(dst, f)
			if n, _ := h.net.Endpoint(dst).Queued(int(f.Src)); n > 1 {
				deep++
			}
		}, mark}
	}
	var err error
	h, err = newHost(Config{
		NL: nl, GateParts: randomParts(nl, k, 17), K: k,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		Transport: watched,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	ready := func(c *cluster) bool {
		for _, s := range c.prog.senders {
			if c.ep.Heard(int(s)) < c.cycle {
				return false
			}
		}
		return c.cycle < cycles
	}
	rng := rand.New(rand.NewSource(1))
	finished := func() bool {
		for _, c := range h.clusters {
			if c.cycle < cycles {
				return false
			}
		}
		return true
	}
	for !finished() {
		if c := h.clusters[rng.Intn(k)]; ready(c) {
			if err := c.processCycle(c.cycle); err != nil {
				t.Fatal(err)
			}
		}
	}
	if deep == 0 {
		t.Error("schedule too tame: no link ever held frames for two cycles")
	}
	if len(last) == 0 {
		t.Fatal("no frame crossed a link")
	}
	// Each frame was taken in the cycle it is stamped with: once every
	// cluster has run its cycles, none is left on a link.
	res := mergeResults(k, []*distResult{h.collect()})
	if len(res.InvariantViolations) > 0 {
		t.Fatalf("after the last cycles: %v", res.InvariantViolations)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), "hand-stepped")
	h.abort()
}
