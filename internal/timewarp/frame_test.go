package timewarp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// FuzzLinkFrames draws a gen family, a cluster count k in 2..5 and a
// partition seed, partitions the circuit at random, replicates it and
// compiles every cluster (checkLinks).
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
// other clusters' flip-flop outputs it reads (naiveCopies), each once. And
// a frame round trip — the sender gathers random values of its flip-flops,
// the frame crosses the wire codec, the receiver absorbs and applies it —
// leaves each slot the receiver reads holding the sender's value.
func checkLinks(t *testing.T, nl *netlist.Netlist, parts []int32, k int, seed int64) {
	t.Helper()
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	rep := replicate(nl, parts, k)
	evaluated := naiveCopies(nl, parts, k)
	progs, machs := make([]*program, k), make([]sim.Machine, k)
	for id := range progs {
		progs[id], machs[id] = compile(sw, parts, rep, int32(id), nil)
	}
	rng := rand.New(rand.NewSource(seed))
	for r, rp := range progs {
		// What r reads across the cut: every other cluster's flip-flop
		// output a gate it evaluates reads.
		want := map[netlist.NetID]bool{}
		for gi, ev := range evaluated[r] {
			if !ev {
				continue
			}
			for _, n := range nl.Gates[gi].Inputs {
				if d := nl.Nets[n].Driver; d != netlist.NoGate && parts[d] != int32(r) && nl.Gates[d].Kind.Sequential() {
					want[n] = true
				}
			}
		}
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
			buf, err := appendMessage(nil, &frame{T: 3, Src: s, Words: words})
			if err != nil {
				t.Fatal(err)
			}
			f, err := decodeMessage(buf)
			if err != nil {
				t.Fatal(err)
			}
			rc := &cluster{id: int32(r), prog: rp, Machine: machs[r], cycle: 3, in: make([][]*frame, len(rp.senders))}
			rc.Slots = make([]bool, len(rc.Nets))
			if err := rc.absorbFrame(f); err != nil {
				t.Fatalf("link %d→%d: %v", s, r, err)
			}
			rc.apply(3)
			for b := range link {
				if rc.Slots[in[b]] != sc.Slots[link[b]] {
					t.Fatalf("link %d→%d bit %d (%s): the receiver holds %v, the sender %v",
						s, r, b, nl.Nets[sm.Nets[link[b]]].Name, rc.Slots[in[b]], sc.Slots[link[b]])
				}
			}
			if len(rc.in[j]) != 0 {
				t.Fatalf("link %d→%d: the applied frame is still queued", s, r)
			}
		}
		if got != len(want) {
			t.Fatalf("cluster %d receives %d values, reads %d other clusters' flip-flop outputs", r, got, len(want))
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

// TestAbsorbRefusesBadFrames walks a receiver's FIFO by hand on the
// one-way pair, whose cluster 1 reads one of cluster 0's flip-flops: frames
// for two cycles filed in order; a cycle applies the front one and leaves
// the later one queued; a frame from a cluster that is not a sender, of
// the wrong length or with a padding bit set is refused as misrouted, one
// for an executed cycle as a straggler; and the same frame filed twice
// breaks the order checkLogs checks.
func TestAbsorbRefusesBadFrames(t *testing.T) {
	nl, parts := togglePair(t)
	h, err := newHost(Config{NL: nl, GateParts: parts, K: 2, Vectors: sim.RandomVectors{Seed: 1}, Cycles: 8}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.abort()
	a, b := h.clusters[0], h.clusters[1]
	in := b.prog.inputs(0)
	if len(in) != 1 || !slices.Equal(b.prog.senders, []int32{0}) || !slices.Equal(a.prog.receivers, []int32{1}) {
		t.Fatalf("senders %v, receivers %v, %d values a frame; want cluster 0 sending cluster 1 one", b.prog.senders, a.prog.receivers, len(in))
	}
	refused := func(f *frame, want string) {
		t.Helper()
		if err := b.absorbFrame(f); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("frame %+v: error %v, want %q", f, err, want)
		}
	}
	for _, f := range []*frame{{T: 0, Src: 0, Words: []uint64{1}}, {T: 1, Src: 0, Words: []uint64{0}}} {
		if err := b.absorbFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.checkLogs(); err != nil {
		t.Fatal(err)
	}
	b.apply(0)
	b.cycle = 1
	if !b.Slots[in[0]] || len(b.in[0]) != 1 || b.in[0][0].T != 1 {
		t.Fatalf("after cycle 0: slot %v, FIFO %v; want true and cycle 1's frame alone", b.Slots[in[0]], b.in[0])
	}
	refused(&frame{T: 2, Src: 1, Words: []uint64{0}}, "misrouted")
	refused(&frame{T: 2, Src: 0, Words: []uint64{0, 0}}, "misrouted")
	refused(&frame{T: 2, Src: 0, Words: []uint64{2}}, "padding bits")
	refused(&frame{T: 0, Src: 0, Words: []uint64{0}}, "invariant violated: straggler")
	if len(b.in[0]) != 1 {
		t.Fatalf("a refused frame changed the FIFO: %v", b.in[0])
	}
	if err := b.absorbFrame(&frame{T: 1, Src: 0, Words: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.checkLogs(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("two frames for one cycle from one sender: checkLogs error %v", err)
	}
}

// TestLinkFramesArriveInOrder steps three clusters of a randomly cut
// decoder by hand, over a transport that is not the direct one, under a
// random schedule: a cluster looks in its mailbox at random, and executes
// its next cycle at random once every sender's watermark for it has
// arrived — the wait rule, by hand. Senders run ahead of their receivers
// by many cycles, so frames for several cycles wait in a FIFO. Each
// sender's frames must arrive with strictly increasing T, none for a
// cycle its receiver has executed, and the run must commit the sequential
// simulator's waveforms.
func TestLinkFramesArriveInOrder(t *testing.T) {
	nl := viterbiDesign(t).Netlist
	const k, cycles, seed = 3, 40, 41
	state := sim.StateNets(nl)
	h, err := newHost(Config{
		NL: nl, GateParts: randomParts(nl, k, 17), K: k,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		Transport: syncDelivery,
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
	last := map[[2]int32]uint64{} // (dst, src) → T of the last frame seen
	deep := 0                     // looks that left a FIFO holding two frames or more
	finished := func() bool {
		for _, c := range h.clusters {
			if c.cycle < cycles {
				return false
			}
		}
		return true
	}
	look := func(c *cluster) {
		msgs := c.ep.TryRecvAll()
		for _, m := range msgs {
			f := m.(*frame)
			key := [2]int32{c.id, f.Src}
			if t0, ok := last[key]; ok && f.T <= t0 {
				t.Fatalf("cluster %d: frame for cycle %d from cluster %d after one for cycle %d", c.id, f.T, f.Src, t0)
			}
			last[key] = f.T
		}
		if err := c.absorb(msgs); err != nil {
			t.Fatal(err)
		}
		if err := c.checkLogs(); err != nil {
			t.Fatal(err)
		}
		for _, q := range c.in {
			if len(q) > 1 {
				deep++
			}
		}
	}
	for !finished() {
		c := h.clusters[rng.Intn(k)]
		if rng.Intn(2) == 0 {
			look(c)
		}
		if ready(c) && rng.Intn(3) > 0 {
			look(c) // what the cycle reads is filed before it runs
			if err := c.processCycle(c.cycle); err != nil {
				t.Fatal(err)
			}
		}
	}
	if deep == 0 {
		t.Error("schedule too tame: no FIFO ever held frames for two cycles")
	}
	if len(last) == 0 {
		t.Fatal("no frame crossed a link")
	}
	// Each frame was absorbed before the cycle it is stamped with: once
	// every cluster has run its cycles, none is left on a link.
	res := mergeResults(k, []*distResult{h.collect()})
	if len(res.InvariantViolations) > 0 {
		t.Fatalf("after the last cycles: %v", res.InvariantViolations)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, cycles, seed), "hand-stepped")
	h.abort()
}
