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
	onSend  func(dst int, msg comm.Message) // when set, sees every message sent
}

type heldMessage struct {
	dst int
	msg comm.Message
}

func (h *heldTransport) Send(src, dst int, msg comm.Message) {
	if h.onSend != nil {
		h.onSend(dst, msg)
	}
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

// handStepped is a host whose clusters the test steps by hand over a
// heldTransport.
type handStepped struct {
	t  *testing.T
	h  *host
	tr *heldTransport
}

// newHandStepped builds the host for cfg (owns as newHost's) over a
// heldTransport.
func newHandStepped(t *testing.T, cfg Config, owns func(c int) bool) *handStepped {
	t.Helper()
	s := &handStepped{t: t}
	cfg.Transport = func(k int, deliver comm.DeliverFunc) comm.Transport {
		s.tr = &heldTransport{deliver: deliver}
		return s.tr
	}
	var err error
	if s.h, err = newHost(cfg, "tw", owns); err != nil {
		t.Fatal(err)
	}
	return s
}

// step executes c's next cycle.
func (s *handStepped) step(c *cluster) {
	s.t.Helper()
	if err := c.processCycle(c.cycle); err != nil {
		s.t.Fatal(err)
	}
}

// look has c absorb what its mailbox holds, as between two cycles.
func (s *handStepped) look(c *cluster) {
	s.t.Helper()
	msgs := c.ep.TryRecvAll()
	if err := c.absorb(msgs); err != nil {
		s.t.Fatal(err)
	}
	s.h.absorbed.Add(uint64(len(msgs)))
}

// settle steps the clusters in turn to cycle warm and lets everything sent
// on the way be absorbed.
func (s *handStepped) settle(warm uint64) {
	s.t.Helper()
	h := s.h
	for h.clusters[0].cycle < warm || h.clusters[1].cycle < warm || h.net.TotalSent() != h.absorbed.Load() {
		for _, c := range h.clusters {
			s.look(c)
			if c.cycle < warm {
				s.step(c)
			}
		}
	}
}

// finish runs the two clusters to the end on a schedule seeded by seed, in
// which a cluster looks in its mailbox before a cycle a third of the time,
// so stragglers keep landing inside cycles: at delta 0 (already in the
// mailbox) and further in (released by a poll). At the end every message is
// absorbed, the quiescence tracker terminates the run at GVT = Cycles and
// the waveforms of state are want. It returns the run's statistics.
func (s *handStepped) finish(seed int64, state []netlist.NetID, want map[netlist.NetID][]bool) Stats {
	t, h := s.t, s.h
	t.Helper()
	cycles := h.cfg.Cycles
	rng := rand.New(rand.NewSource(seed))
	for h.clusters[0].cycle < cycles || h.clusters[1].cycle < cycles || h.net.TotalSent() != h.absorbed.Load() {
		c := h.clusters[rng.Intn(2)]
		if c.cycle == cycles || rng.Intn(3) == 0 {
			s.look(c)
		}
		if c.cycle < cycles {
			s.step(c)
		}
	}

	q := newQuiescence(2, cycles, 0, 0, time.Time{})
	smp := sample{progress: make([]uint64, 2), complete: true, drained: true}
	var v verdict
	for i := 0; i < 3; i++ { // the first sample has no predecessor to be frozen against
		h.sample(&smp)
		v = q.step(smp)
	}
	res := mergeResults(2, []*distResult{h.collect()}, q)
	if !v.terminate || v.gvt != cycles || len(res.InvariantViolations) != 0 {
		t.Errorf("at the end: terminate=%v gvt=%d violations=%v, want a clean termination at GVT %d",
			v.terminate, v.gvt, res.InvariantViolations, cycles)
	}
	compareObserved(t, h.cfg.NL, state, res.Observed, want, t.Name())
	h.closeEndpoints()
	h.net.CloseTransport()
	return res.Stats
}

// TestStragglerMidCycleAbandonsTheCycle steps the two clusters of the serial
// cut by hand. The opening is exact: with both clusters settled at the start
// of a busy cycle, cluster 0 executes it and its events stay in the
// transport; cluster 1 starts the cycle without them and meets them at its
// first poll, pollEvals evaluations in — it must give the cycle up there,
// account what it evaluated as rolled back and be back at the start of the
// cycle, all in one rollback. The rest of the run follows handStepped.finish's
// seeded schedule, and ends clean with the sequential simulator's waveforms.
func TestStragglerMidCycleAbandonsTheCycle(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const cycles, warm, seed = 48, 11, 5
	state := sim.StateNets(nl)
	want := seqOracle(t, nl, state, cycles, seed)

	// Events are batched to one message per destination per cycle, less
	// what the early-send rule lets leave alone.
	t.Run("every-cycle", func(t *testing.T) {
		s := newHandStepped(t, Config{
			NL: nl, GateParts: parts, K: 2,
			Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		}, nil)
		h, a, b := s.h, s.h.clusters[0], s.h.clusters[1]

		// Warm up in step to a cycle busy enough to poll inside, and let
		// everything settle there.
		s.settle(warm)
		before, sent := b.stats.Snapshot(), h.net.TotalSent()

		s.tr.shut = true // cluster 0's own polls must not deliver its events
		s.step(a)
		s.tr.shut = false
		if a.cycle != warm+1 || h.net.TotalSent() == sent {
			t.Fatalf("opening: cluster 0 at cycle %d after %d messages, want cycle %d and some",
				a.cycle, h.net.TotalSent()-sent, warm+1)
		}
		s.step(b)
		st := b.stats.Snapshot()
		if st.AbandonedCycles != before.AbandonedCycles+1 || st.Rollbacks != before.Rollbacks+1 || b.cycle > warm {
			t.Fatalf("opening: cluster 1 abandoned %d cycles in %d rollbacks and stands at cycle %d, want 1, 1 and at most %d",
				st.AbandonedCycles-before.AbandonedCycles, st.Rollbacks-before.Rollbacks, b.cycle, warm)
		}
		if evals, undone := st.Events-before.Events, st.RolledBackEvents-before.RolledBackEvents; evals < pollEvals || undone < evals {
			t.Fatalf("opening: the abandoned cycle evaluated %d gates and the rollback undid %d; want at least %d, all undone",
				evals, undone, pollEvals)
		}

		total := s.finish(seed, state, want)
		t.Logf("%d evaluations, %d rolled back; %d rollbacks, %d of them abandoned cycles",
			total.Events, total.RolledBackEvents, total.Rollbacks, total.AbandonedCycles)
		if total.AbandonedCycles < 5 {
			t.Errorf("schedule too tame: %d cycles abandoned", total.AbandonedCycles)
		}
	})
}

// TestStragglerSentWhileReceiverIsThere steps the serial cut by hand over a
// transport that shows the test every message as it is sent. With both
// clusters settled at the start of a busy cycle, cluster 1 has reached it,
// so the first combinational event cluster 0 computes for it leaves alone
// before cluster 0's latch has run — held for the cycle's one batch, it
// would reach a cluster 1 that might have started the cycle without it.
// Cluster 1, looking before it starts the cycle, then runs it without a
// rollback. Cluster 0 goes on to execute the next cycle, which cluster 1 has
// not reached: one message to it, at cycle end. The run then finishes on a
// seeded schedule with the sequential simulator's waveforms. A worker host,
// whose cluster 1 runs in another process, sends it at most one message a
// cycle however far ahead cluster 1's progress reads; a host running both
// clusters sends more.
func TestStragglerSentWhileReceiverIsThere(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const cycles, warm, seed = 48, 11, 5
	state := sim.StateNets(nl)
	cfg := Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
	}

	t.Run("receiver-there", func(t *testing.T) {
		want := seqOracle(t, nl, state, cycles, seed)
		s := newHandStepped(t, cfg, nil)
		a, b := s.h.clusters[0], s.h.clusters[1]
		s.settle(warm)

		type sent struct {
			msg         comm.Message
			beforeLatch bool // the sender's cycle has toggled no flip-flop yet
		}
		var toB []sent
		s.tr.onSend = func(dst int, msg comm.Message) {
			if dst == 1 {
				toB = append(toB, sent{msg, len(a.carry) == 0})
			}
		}
		s.step(a)
		if len(a.carry) == 0 || len(toB) < 2 {
			t.Fatalf("cycle %d: cluster 0 toggled %d flip-flops and sent cluster 1 %d messages; want some and at least 2",
				warm, len(a.carry), len(toB))
		}
		base := warm * s.h.deltaRange
		if e, ok := toB[0].msg.(event); !ok || e.Anti || e.T <= base || e.T >= base+s.h.deltaRange || !toB[0].beforeLatch {
			t.Fatalf("cycle %d: the first message to cluster 1 is %+v, sent before the latch: %v; want one positive event stamped inside the cycle, before the latch",
				warm, toB[0].msg, toB[0].beforeLatch)
		}

		toB = toB[:0]
		s.step(a)
		if len(toB) != 1 {
			t.Fatalf("cycle %d, which cluster 1 (at %d) has not reached: %d messages to it, want 1", warm+1, b.cycle, len(toB))
		}
		s.tr.onSend = nil

		before := b.stats.Snapshot()
		s.look(b)
		s.step(b)
		if st := b.stats.Snapshot(); st.Rollbacks != before.Rollbacks {
			t.Fatalf("cluster 1 rolled back %d times in cycle %d with cluster 0's events in hand", st.Rollbacks-before.Rollbacks, warm)
		}
		s.finish(seed, state, want)
	})

	// perCycle steps cluster 0 alone through ten cycles, cluster 1's
	// published progress at the end of the run, and returns the most
	// messages one cycle sent cluster 1.
	perCycle := func(t *testing.T, owns func(c int) bool) int {
		s := newHandStepped(t, cfg, owns)
		s.h.progress[1].Store(cycles)
		a, most, n := s.h.clusters[0], 0, 0
		s.tr.onSend = func(dst int, _ comm.Message) {
			if dst == 1 {
				n++
			}
		}
		for a.cycle < 10 {
			n = 0
			s.step(a)
			most = max(most, n)
		}
		return most
	}
	t.Run("remote-receiver", func(t *testing.T) {
		if most := perCycle(t, func(c int) bool { return c == 0 }); most != 1 {
			t.Errorf("a worker host sent its remote cluster 1 up to %d messages a cycle, want 1", most)
		}
		if most := perCycle(t, nil); most < 2 {
			t.Errorf("a host running both clusters sent cluster 1 at most %d messages a cycle, want more than 1", most)
		}
	})
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
		if buf, err = appendMessage(buf, m); err != nil {
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
