package timewarp

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

// serialCut is the default decoder split k=2 through its trellis — the
// benchmark's viterbi_tw_rollback partition: traffic both ways, so both
// clusters keep rollback records.
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
// is sent until somebody polls, and then delivers all of it. Clusters are
// stepped from the test's goroutine, so nothing here needs a lock.
type heldTransport struct {
	deliver comm.DeliverFunc
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
	for _, m := range h.held {
		h.deliver(m.dst, m.msg)
	}
	h.held = h.held[:0]
}

func (h *heldTransport) Close() { h.Poll() }

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
// so stragglers keep arriving for cycles their receiver has executed. At the
// end every message is
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
	smp := sample{progress: make([]uint64, 2), complete: true}
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
		start := slices.Clone(a.values)
		flipped := func() (n int) { // flip-flops of cluster 0 toggled since start
			for _, f := range a.prog.latch {
				if a.values[f.q] != start[f.q] {
					n++
				}
			}
			return n
		}
		var toB []sent
		s.tr.onSend = func(dst int, msg comm.Message) {
			if dst == 1 {
				toB = append(toB, sent{msg, flipped() == 0})
			}
		}
		s.step(a)
		if n := flipped(); n == 0 || len(toB) < 2 {
			t.Fatalf("cycle %d: cluster 0 toggled %d flip-flops and sent cluster 1 %d messages; want some and at least 2",
				warm, n, len(toB))
		}
		if e, ok := toB[0].msg.(event); !ok || e.Anti || e.T != warm || !toB[0].beforeLatch {
			t.Fatalf("cycle %d: the first message to cluster 1 is %+v, sent before the latch: %v; want one positive event for the cycle, before the latch",
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

// TestRollbackRestoresEveryLiveNet hand-steps the serial cut's cluster 0,
// which hears from cluster 1 and so keeps a rollback record of every cycle,
// and which writes nets of every kind a record holds: stimulus inputs,
// remote inputs, boundary nets and flip-flop outputs. With cluster 1's
// events for the cycles ahead in its queue, it executes
// cycle warm and a few beyond, then rolls back to warm. Every net must hold
// what it held when cycle warm began — except the own combinational outputs
// no other cluster reads, which the restore rule leaves to the next settle
// (undo.go). Re-executing cycle warm must then end in the very state the
// first execution ended in, those outputs included.
func TestRollbackRestoresEveryLiveNet(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const warm, ahead = 11, 6
	s := newHandStepped(t, Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 5}, Cycles: warm + ahead,
	}, nil)
	c, peer := s.h.clusters[0], s.h.clusters[1]
	s.settle(warm)
	for peer.cycle < warm+ahead {
		s.step(peer)
	}
	s.look(c)
	if c.cycle != warm || c.undo == nil || c.next == len(c.inq) {
		t.Fatalf("cluster 0 at cycle %d, record kept: %v, %d events pending; want cycle %d, a record and some",
			c.cycle, c.undo != nil, len(c.inq)-c.next, warm)
	}

	// left[n]: net n is an own combinational output no other cluster reads.
	left := make([]bool, len(nl.Nets))
	for _, g := range c.prog.tab {
		left[g.Out] = true
	}
	for _, n := range c.prog.bound {
		left[n] = false
	}

	atStart := slices.Clone(c.values)
	s.step(c)
	afterFirst := slices.Clone(c.values)
	for c.cycle < warm+ahead {
		s.step(c)
	}
	moved := map[string]int{} // live nets the cycles ahead changed, by kind
	for n := range atStart {
		if left[n] || atStart[n] == c.values[n] {
			continue
		}
		switch d := nl.Nets[n].Driver; {
		case d == netlist.NoGate:
			moved["stimulus"]++
		case parts[d] != c.id:
			moved["remote"]++
		case nl.Gates[d].Kind.Sequential():
			moved["flip-flop"]++
		default:
			moved["boundary"]++
		}
	}
	if len(moved) != 4 {
		t.Fatalf("cycles %d to %d changed these live nets of cluster 0: %v; want some of each of 4 kinds", warm, c.cycle-1, moved)
	}

	if err := c.rollback(warm, 0); err != nil {
		t.Fatal(err)
	}
	unrestored := 0 // own combinational outputs the restore left as they were
	for n := range atStart {
		switch {
		case left[n]:
			if c.values[n] != atStart[n] {
				unrestored++
			}
		case c.values[n] != atStart[n]:
			t.Errorf("rolled back to cycle %d: net %s is %v, was %v when the cycle began",
				warm, nl.Nets[n].Name, c.values[n], atStart[n])
		}
	}
	t.Logf("changed ahead: %v; %d unread own combinational outputs left to the settle", moved, unrestored)

	s.step(c)
	for n := range afterFirst {
		if c.values[n] != afterFirst[n] {
			t.Errorf("cycle %d re-executed: net %s is %v, the first execution left it %v",
				warm, nl.Nets[n].Name, c.values[n], afterFirst[n])
		}
	}
	s.h.closeEndpoints()
	s.h.net.CloseTransport()
}

// lazyPair is a two-cluster design with traffic both ways: cluster 0's
// flip-flop q toggles every cycle and cluster 1 reads it; cluster 1 sends
// back y = q and z = r, r a flip-flop of its own toggling every cycle. So
// cluster 1 sends y and z in every cycle, and what it sends of y depends
// only on what it hears of q.
func lazyPair(t *testing.T) (*netlist.Netlist, []int32) {
	t.Helper()
	c := &gen.Circuit{Name: "lazy", Top: "lazy", Source: `
module lazy (input clk, output o1, output o2);
  wire q, nq, y, r, nr, z, w, u;
  not n0 (nq, q);
  dff f0 (q, nq, clk);
  buf by (y, q);
  not n1 (nr, r);
  dff f1 (r, nr, clk);
  buf bz (z, r);
  dff f2 (w, y, clk);
  dff f3 (u, z, clk);
  buf b1 (o1, w);
  buf b2 (o2, u);
endmodule
`}
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	parts := make([]int32, len(nl.Gates))
	for gi := range nl.Gates {
		switch name := nl.Nets[nl.Gates[gi].Output].Name; name[strings.LastIndexByte(name, '.')+1:] {
		case "y", "nr", "r", "z":
			parts[gi] = 1
		}
	}
	return nl, parts
}

// TestLazyCancellation hand-steps lazyPair through the three outcomes of
// lazy cancellation. Both clusters run in step past cycles c and c+1, so
// cluster 1's records of those cycles hold the y and z it sent. Cluster 0
// then revises what it said of q: it cancels its events for c and c+1 and
// sends, for c+1, the opposite of what it had. Cluster 1 rolls back to c and
// re-executes: q no longer changes in cycle c, so y is not sent again and
// its old event is cancelled at the cycle's end; in cycle c+1 y changes the
// other way, so the old event's anti-message leaves ahead of the new
// positive; z is regenerated identically in both cycles, so nothing goes out
// for it. Afterwards each record holds exactly what stands.
func TestLazyCancellation(t *testing.T) {
	nl, parts := lazyPair(t)
	const c = 5
	s := newHandStepped(t, Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 1}, Cycles: c + 4,
	}, nil)
	a, b := s.h.clusters[0], s.h.clusters[1]
	s.settle(c + 2)
	net := func(name string) netlist.NetID {
		for n := range nl.Nets {
			if full := nl.Nets[n].Name; full == name || strings.HasSuffix(full, "."+name) {
				return netlist.NetID(n)
			}
		}
		t.Fatalf("no net %s", name)
		return 0
	}
	q, y, z := net("q"), net("y"), net("z")
	sentBy := func(cyc uint64) map[netlist.NetID]event {
		got := map[netlist.NetID]event{}
		for _, e := range b.undo.hist[cyc-b.undo.fossil].sent {
			got[e.Net] = e
		}
		return got
	}
	first := [2]map[netlist.NetID]event{sentBy(c), sentBy(c + 1)}
	for i, m := range first {
		if _, ok := m[y]; !ok || len(m) != 2 {
			t.Fatalf("cycle %d: cluster 1's record keeps %v, want an event on y and one on z", c+i, m)
		}
	}

	// Cluster 0's events on q for cycles c and c+1, as cluster 1 holds them.
	var heard [2]event
	for _, e := range b.inq {
		if e.Src == a.id && e.Net == q && (e.T == c || e.T == c+1) {
			heard[e.T-c] = e
		}
	}
	if heard[0].Seq == 0 || heard[1].Seq == 0 || heard[0].Val == heard[1].Val {
		t.Fatalf("cluster 1 heard %+v of q for cycles %d and %d, want a toggle", heard, c, c+1)
	}
	revise := batch{heard[0], heard[1], heard[1]}
	revise[0].Anti, revise[1].Anti = true, true
	a.seq++
	revise[2].Val, revise[2].Seq = !heard[1].Val, a.seq

	var out []event // what cluster 1 sends cluster 0, in send order
	s.tr.onSend = func(dst int, msg comm.Message) {
		if dst == int(a.id) {
			switch m := msg.(type) {
			case event:
				out = append(out, m)
			case batch:
				out = append(out, m...)
			}
		}
	}
	if err := b.absorb([]comm.Message{revise}); err != nil {
		t.Fatal(err)
	}
	if b.cycle != c {
		t.Fatalf("cluster 1 at cycle %d after the revision, want it rolled back to %d", b.cycle, c)
	}

	// Cycle c: y unchanged, so its old event is cancelled at cycle end; z
	// identical, so nothing.
	s.step(b)
	if want := first[0][y]; len(out) != 1 || !out[0].Anti || out[0].Seq != want.Seq || out[0].T != c {
		t.Fatalf("re-executing cycle %d, cluster 1 sent %+v; want only the anti-message of %+v", c, out, want)
	}
	if got := sentBy(c); len(got) != 1 || got[z] != first[0][z] {
		t.Errorf("cycle %d's record keeps %v, want only the standing event on z, %+v", c, got, first[0][z])
	}

	// Cycle c+1: y changes the other way: anti-message, then the positive.
	out = out[:0]
	s.step(b)
	old := first[1][y]
	if len(out) != 2 || !out[0].Anti || out[0].Seq != old.Seq ||
		out[1].Anti || out[1].Net != y || out[1].Val == old.Val || out[1].T != c+1 {
		t.Fatalf("re-executing cycle %d, cluster 1 sent %+v; want the anti-message of %+v, then y = %v", c+1, out, old, !old.Val)
	}
	if got := sentBy(c + 1); len(got) != 2 || got[z] != first[1][z] || got[y] != out[1] {
		t.Errorf("cycle %d's record keeps %v, want the standing z %+v and the new y %+v", c+1, got, first[1][z], out[1])
	}
	if st := b.stats.Snapshot(); st.AntiMessages != 2 {
		t.Errorf("cluster 1 sent %d anti-messages, want 2", st.AntiMessages)
	}
	s.h.closeEndpoints()
	s.h.net.CloseTransport()
}
