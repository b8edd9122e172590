package timewarp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/nettrans"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// serialCut is the default decoder split k=2 through its trellis — the
// benchmark's viterbi_tw_rollback partition: traffic both ways, and each
// cluster evaluates several times pollEvals gates a cycle, so a cycle in
// progress polls its transport more than once.
func serialCut(t testing.TB) (*elab.Design, []int32) {
	t.Helper()
	ed, err := gen.Viterbi(gen.DefaultViterbi).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ed, parts.GateParts
}

// heldTransport is a polled transport under the test's hand: it keeps what
// is sent until somebody polls — and, while shut, through polls too — and
// then delivers all of it. Clusters are stepped from the test's goroutine,
// so nothing here needs a lock.
type heldTransport struct {
	deliver comm.DeliverFunc
	shut    bool
	held    []heldMessage
}

type heldMessage struct {
	dst int
	msg comm.Message
}

func (h *heldTransport) Send(src, dst int, msg comm.Message) {
	h.held = append(h.held, heldMessage{dst, msg})
}

func (h *heldTransport) Poll() {
	if h.shut {
		return
	}
	for _, m := range h.held {
		h.deliver(m.dst, m.msg)
	}
	h.held = h.held[:0]
}

func (h *heldTransport) Close() {
	h.shut = false
	h.Poll()
}

// TestStragglerMidCycleAbandonsTheCycle steps the two clusters of the serial
// cut by hand. The opening is exact: with both clusters settled at the start
// of a busy cycle, cluster 0 executes it and its events stay in the
// transport; cluster 1 starts the cycle without them and meets them at its
// first poll, pollEvals evaluations in — it must give the cycle up there,
// account what it evaluated as rolled back and be back at the start of the
// cycle, all in one rollback. The rest of the run follows a seeded schedule
// in which a cluster looks in its mailbox before a cycle only half of the
// time, so stragglers keep landing inside cycles, at delta 0 (already in the
// mailbox) and further in (released by a poll). At the end every message is
// absorbed, the quiescence tracker terminates the run at GVT = Cycles and
// the waveforms are the sequential simulator's. With DisableBatching the
// abandoned cycle's events have left one by one before it is given up.
func TestStragglerMidCycleAbandonsTheCycle(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const cycles, warm, seed = 48, 11, 5
	state := sim.StateNets(nl)
	want := seqOracle(t, nl, state, cycles, seed)

	for _, tc := range []struct {
		name string
		tune func(*Config)
	}{
		{"every-cycle", func(*Config) {}},
		{"no-batching", func(c *Config) { c.DisableBatching = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tr *heldTransport
			cfg := Config{
				NL: nl, GateParts: parts, K: 2,
				Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
				Transport: func(k int, deliver comm.DeliverFunc) comm.Transport {
					tr = &heldTransport{deliver: deliver}
					return tr
				},
			}
			tc.tune(&cfg)
			h, err := newHost(cfg, "tw", nil)
			if err != nil {
				t.Fatal(err)
			}
			a, b := h.clusters[0], h.clusters[1]
			step := func(c *cluster) {
				t.Helper()
				if err := c.processCycle(c.cycle); err != nil {
					t.Fatal(err)
				}
			}
			look := func(c *cluster) {
				t.Helper()
				msgs := c.ep.TryRecvAll()
				if err := c.absorb(msgs); err != nil {
					t.Fatal(err)
				}
				h.absorbed.Add(uint64(len(msgs)))
			}

			// Warm up in step to a cycle busy enough to poll inside, and
			// let everything settle there.
			for a.cycle < warm || b.cycle < warm || h.net.TotalSent() != h.absorbed.Load() {
				for _, c := range h.clusters {
					look(c)
					if c.cycle < warm {
						step(c)
					}
				}
			}
			before, sent := b.stats.Snapshot(), h.net.TotalSent()

			tr.shut = true // cluster 0's own polls must not deliver its events
			step(a)
			tr.shut = false
			if a.cycle != warm+1 || h.net.TotalSent() == sent {
				t.Fatalf("opening: cluster 0 at cycle %d after %d messages, want cycle %d and some",
					a.cycle, h.net.TotalSent()-sent, warm+1)
			}
			step(b)
			st := b.stats.Snapshot()
			if st.AbandonedCycles != before.AbandonedCycles+1 || st.Rollbacks != before.Rollbacks+1 || b.cycle > warm {
				t.Fatalf("opening: cluster 1 abandoned %d cycles in %d rollbacks and stands at cycle %d, want 1, 1 and at most %d",
					st.AbandonedCycles-before.AbandonedCycles, st.Rollbacks-before.Rollbacks, b.cycle, warm)
			}
			if evals, undone := st.Events-before.Events, st.RolledBackEvents-before.RolledBackEvents; evals < pollEvals || undone < evals {
				t.Fatalf("opening: the abandoned cycle evaluated %d gates and the rollback undid %d; want at least %d, all undone",
					evals, undone, pollEvals)
			}
			rng := rand.New(rand.NewSource(seed))
			finished := func() bool {
				return a.cycle == cycles && b.cycle == cycles && h.net.TotalSent() == h.absorbed.Load()
			}
			for !finished() {
				c := h.clusters[rng.Intn(2)]
				if c.cycle == cycles || rng.Intn(3) == 0 {
					look(c)
				}
				if c.cycle < cycles {
					step(c)
				}
			}

			var total Stats
			for _, c := range h.clusters {
				total.add(c.stats.Snapshot())
			}
			t.Logf("%d evaluations, %d rolled back; %d rollbacks, %d of them abandoned cycles",
				total.Events, total.RolledBackEvents, total.Rollbacks, total.AbandonedCycles)
			if total.AbandonedCycles < 5 {
				t.Errorf("schedule too tame: %d cycles abandoned", total.AbandonedCycles)
			}

			q := newQuiescence(2, cycles, 0, 0, time.Time{})
			s := sample{progress: make([]uint64, 2), complete: true, drained: true}
			var v verdict
			for i := 0; i < 3; i++ { // the first sample has no predecessor to be frozen against
				h.sample(&s)
				v = q.step(s)
			}
			if !v.terminate || v.gvt != cycles || len(q.violations) != 0 {
				t.Errorf("at the end: terminate=%v gvt=%d violations=%v, want a clean termination at GVT %d",
					v.terminate, v.gvt, q.violations, cycles)
			}
			got := map[netlist.NetID][]bool{}
			for _, o := range h.collect().Observed {
				got[o.Net] = o.Values
			}
			compareObserved(t, nl, state, got, want, tc.name)
			h.closeEndpoints()
			h.net.CloseTransport()
		})
	}
}

// TestStragglerOnTheMeshAbandonsTheCycle is the same encounter over the
// transport a distributed worker runs on. The decoder is cut so that
// cluster 1, nearly all of it, is busy even alone. It has run ahead; what
// cluster 0 sent in cycle 0 is frames in the worker's mesh socket, which
// nobody reads but the clusters themselves, and cluster 1 is inside a cycle
// when its bounded poll finds them. It must abandon that cycle, undo
// what it ran ahead from the straggler's cycle on and, re-executing that
// cycle, end where a cluster ends that saw the events before it began.
func TestStragglerOnTheMeshAbandonsTheCycle(t *testing.T) {
	ed, err := gen.Viterbi(gen.DefaultViterbi).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(ed.Netlist.Gates))
	for gi := range parts {
		if gi%64 != 0 {
			parts[gi] = 1
		}
	}
	const ahead = 6
	cfg := Config{
		NL: ed.Netlist, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 5}, Cycles: ahead + 2,
	}

	// The reference, in one process: cluster 0 executes cycle 0 and
	// cluster 1 absorbs what that sent before it starts.
	ref, err := newHost(cfg, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.clusters[0].processCycle(0); err != nil {
		t.Fatal(err)
	}
	msgs := ref.clusters[1].ep.TryRecvAll()
	first := uint64(math.MaxUint64) // the cycle the earliest of them is stamped in
	for _, m := range msgs {
		evs, _ := m.(batch)
		if e, ok := m.(event); ok {
			evs = batch{e}
		}
		for _, e := range evs {
			first = min(first, e.T/ref.deltaRange)
		}
	}
	if first > 1 {
		t.Fatalf("cluster 0 sent cluster 1 %d messages in cycle 0, the earliest for cycle %d", len(msgs), first)
	}

	// The fixture's worker, with cluster 1 as the local one. It runs ahead,
	// then the test writes the same messages to the mesh socket in the
	// other worker's place.
	f := newMeshFixture(t)
	f.w.placement = []int32{1, 0}
	cfg.Transport = f.w.mesh.factory()
	f.w.h, err = newHost(cfg, "dist", func(c int) bool { return c == 1 })
	if err != nil {
		t.Fatal(err)
	}
	f.w.mesh.net = f.w.h.net
	c := f.w.h.clusters[0]
	for c.cycle < ahead {
		if err := c.processCycle(c.cycle); err != nil {
			t.Fatal(err)
		}
	}
	before := c.stats.Snapshot()
	if before.Rollbacks != 0 {
		t.Fatalf("cluster 1 rolled back %d times with nothing on the wire", before.Rollbacks)
	}
	for _, m := range msgs {
		buf := nettrans.AppendDataFrame(nil, 0, 1, 0, nil)
		if buf, err = WireCodec().Append(buf, m); err != nil {
			t.Fatal(err)
		}
		if err := f.peer.Send(nettrans.FrameData, buf); err != nil {
			t.Fatal(err)
		}
	}

	if err := c.processCycle(ahead); err != nil {
		t.Fatal(err)
	}
	st := c.stats.Snapshot()
	if st.AbandonedCycles != 1 || st.Rollbacks != 1 || c.cycle != first {
		t.Fatalf("cluster 1 abandoned %d cycles in %d rollbacks and stands at cycle %d, want 1, 1 and %d",
			st.AbandonedCycles, st.Rollbacks, c.cycle, first)
	}
	standing := uint64(0)
	for _, r := range c.undo.hist {
		standing += r.evals
	}
	if in := st.Events - before.Events; in < pollEvals || st.Events-st.RolledBackEvents != standing {
		t.Fatalf("the abandoned cycle evaluated %d gates; %d of all %d evaluations counted rolled back with %d standing; want at least %d, and the books to balance",
			in, st.RolledBackEvents, st.Events, standing, pollEvals)
	}
	if got := f.w.h.absorbed.Load(); got != uint64(len(msgs)) {
		t.Errorf("%d of %d messages absorbed", got, len(msgs))
	}

	rc := ref.clusters[1]
	if err := rc.absorb(msgs); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*cluster{rc, c} {
		for cl.cycle <= first {
			if err := cl.processCycle(cl.cycle); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := range rc.values {
		if c.values[n] != rc.values[n] {
			t.Fatalf("after cycle %d: net %s is %v on the mesh, %v in the reference",
				first, ed.Netlist.Nets[n].Name, c.values[n], rc.values[n])
		}
	}
}

// TestChaosRunAbandonsCycles is the free-running counterpart: the serial cut
// under Run, every cluster on its own goroutine, with and without the chaos
// transport's delays and stalls. Stragglers then land inside cycles by the
// scheduler's doing, not the test's, and the run must still commit the
// sequential waveforms, absorb every message and terminate at GVT = Cycles.
func TestChaosRunAbandonsCycles(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const cycles, seed = 150, 7
	state := sim.StateNets(nl)
	want := seqOracle(t, nl, state, cycles, seed)
	for _, tc := range []struct {
		name      string
		transport comm.TransportFactory
	}{
		{"direct", nil},
		{"chaos", comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 16})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				NL: nl, GateParts: parts, K: 2,
				Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
				Transport: tc.transport, StallTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			t.Logf("%d rollbacks, %d of them abandoned cycles; %d of %d evaluations rolled back",
				st.Rollbacks, st.AbandonedCycles, st.RolledBackEvents, st.Events)
			// One processor runs one cluster at a time and delivers between
			// its cycles; only with two can a message land inside one.
			if st.AbandonedCycles == 0 && runtime.GOMAXPROCS(0) > 1 {
				t.Errorf("no cycle abandoned in %d rollbacks", st.Rollbacks)
			}
			if st.AbandonedCycles > st.Rollbacks {
				t.Errorf("%d abandoned cycles in %d rollbacks: each abandon is one rollback", st.AbandonedCycles, st.Rollbacks)
			}
			if res.FinalGVT != cycles || len(res.InvariantViolations) != 0 {
				t.Errorf("FinalGVT %d, violations %v; want %d and none", res.FinalGVT, res.InvariantViolations, cycles)
			}
			compareObserved(t, nl, state, res.Observed, want, tc.name)
		})
	}
}
