package timewarp

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
)

// serialCut is the default decoder split k=2 through its trellis — the
// benchmark's viterbi_tw_rollback partition: traffic both ways, so each
// cluster hears from the other.
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
// is sent until somebody polls, and then delivers all of it, watermarks
// after the messages sent before them. Clusters are stepped from the
// test's goroutine, so nothing here needs a lock.
type heldTransport struct {
	k       int
	deliver comm.DeliverFunc
	mark    comm.MarkFunc
	held    []heldMessage
	onSend  func(dst int, msg comm.Message) // when set, sees every message sent
}

// heldMessage is a message, or src's watermark through when msg is nil.
type heldMessage struct {
	src, dst int
	msg      comm.Message
	through  uint64
}

func (h *heldTransport) Send(src, dst int, msg comm.Message) {
	if h.onSend != nil {
		h.onSend(dst, msg)
	}
	h.held = append(h.held, heldMessage{src: src, dst: dst, msg: msg})
}

func (h *heldTransport) Mark(src int, through uint64) {
	for dst := 0; dst < h.k; dst++ {
		if dst != src {
			h.held = append(h.held, heldMessage{src: src, dst: dst, through: through})
		}
	}
}

func (h *heldTransport) Poll() {
	for _, m := range h.held {
		if m.msg == nil {
			h.mark(m.src, m.dst, m.through)
		} else {
			h.deliver(m.dst, m.msg)
		}
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
	cfg.Transport = func(k int, deliver comm.DeliverFunc, mark comm.MarkFunc) comm.Transport {
		s.tr = &heldTransport{k: k, deliver: deliver, mark: mark}
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

// TestStragglerSentWhileReceiverIsThere steps the serial cut's cluster 0
// alone through ten cycles, over a transport that shows the test every
// message as it is sent, with cluster 1's published progress at the end of
// the run. Every event leaves at the end of the cycle that sent it, in one
// message per destination: a worker host, whose cluster 1 runs in another
// process, sends it at most one message a cycle however far ahead cluster
// 1's progress reads, and so does a host running both clusters.
func TestStragglerSentWhileReceiverIsThere(t *testing.T) {
	ed, parts := serialCut(t)
	nl := ed.Netlist
	const cycles, seed = 48, 5
	cfg := Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: sim.StateNets(nl),
	}

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
		if most := perCycle(t, nil); most != 1 {
			t.Errorf("a host running both clusters sent cluster 1 up to %d messages a cycle, want 1", most)
		}
	})
}

// BenchmarkSerialCutRun is a whole free-running kernel run on the serial cut
// (the benchmark's viterbi_tw_rollback partition) over direct delivery:
// both clusters sweep their cycles, copies included, as every cluster does,
// and each waits for the other's watermark before a cycle, since each hears
// from the other. events/message is the mean batch, beside the wall time
// per run. BenchmarkClusterForward (the repository root) times the sweep of
// a cluster that hears from nobody.
func BenchmarkSerialCutRun(b *testing.B) {
	ed, parts := serialCut(b)
	defer func(on bool) { CheckInvariants = on }(CheckInvariants)
	CheckInvariants = false
	var st Stats
	for i := 0; i < b.N; i++ {
		res, err := Run(Config{
			NL: ed.Netlist, GateParts: parts, K: 2,
			Vectors: sim.RandomVectors{Seed: 1}, Cycles: 400,
		})
		if err != nil {
			b.Fatal(err)
		}
		st.add(res.Stats)
	}
	b.ReportMetric(float64(st.BatchedEvents)/float64(st.Batches), "events/message")
}
