package timewarp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
)

// BenchmarkRollbackHistory is a one-cycle rollback and the re-execution of
// that cycle, behind histories of different length: a two-flip-flop ring cut
// between the flip-flops, in which each cluster consumes one event and sends
// one event every cycle, stepped in turn so that nothing rolls back and
// nothing is fossil-collected while the input queue and the records grow to
// the given number of entries. The rollback bisects the queue, moves its
// cursor back over one entry and writes one rollback record back, whose
// send stays standing; the re-execution regenerates the event it sent, so
// nothing goes out, and writes that record again over its own arrays. The
// cost must not depend on the history (the three sizes within 1.5× of each
// other), and the round allocates nothing.
func BenchmarkRollbackHistory(b *testing.B) {
	ring := &gen.Circuit{Name: "ring", Top: "ring", Source: `
module ring (input clk, output out);
  wire q, nq, r, s;
  not n0 (nq, q);
  dff f0 (q, nq, clk);
  dff f1 (r, q, clk);
  xor x0 (s, r, q);
  buf ob (out, s);
endmodule
`}
	ed, err := ring.Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	nl := ed.Netlist
	parts := make([]int32, len(nl.Gates))
	for gi := range nl.Gates {
		if strings.HasSuffix(nl.Nets[nl.Gates[gi].Output].Name, "r") {
			parts[gi] = 1 // f1 alone; it hears q and is heard through r
		}
	}
	defer func(on bool) { CheckInvariants = on }(CheckInvariants)
	CheckInvariants = false // the scan it adds is the cost this benchmark shows gone

	for _, entries := range []uint64{1 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("entries=%dk", entries>>10), func(b *testing.B) {
			h, err := newHost(Config{
				NL: nl, GateParts: parts, K: 2,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: entries + 8,
			}, "tw", nil)
			if err != nil {
				b.Fatal(err)
			}
			c := h.clusters[1]
			for c.cycle < entries+2 {
				for _, cl := range h.clusters {
					if err := cl.absorb(cl.ep.TryRecvAll()); err != nil {
						b.Fatal(err)
					}
					if err := cl.processCycle(cl.cycle); err != nil {
						b.Fatal(err)
					}
				}
			}
			if st := c.stats.Snapshot(); st.Rollbacks != 0 || uint64(c.next) < entries || uint64(c.undo.top) < entries {
				b.Fatalf("history: %d rollbacks, %d consumed input-queue entries and %d records; want none and at least %d of each",
					st.Rollbacks, c.next, c.undo.top, entries)
			}
			round := func() {
				if err := c.rollback(c.cycle-1, 0); err != nil {
					b.Fatal(err)
				}
				if err := c.processCycle(c.cycle); err != nil {
					b.Fatal(err)
				}
			}
			round()
			sent := h.net.TotalSent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if h.net.TotalSent() != sent || uint64(c.next) < entries || uint64(c.undo.top) < entries {
				b.Fatalf("the rounds sent %d messages and left %d consumed input-queue entries and %d records",
					h.net.TotalSent()-sent, c.next, c.undo.top)
			}
		})
	}
}

// BenchmarkSerialCutRun is a whole free-running kernel run on the serial cut
// (the benchmark's viterbi_tw_rollback partition): both clusters sweep their
// cycles, as every cluster does, and both keep rollback records, since each
// hears from the other. An event for a cycle its receiver has reached leaves
// its sender at once rather than at cycle end, so the receiver has run less
// far ahead when it lands: rolledback/executed is the share of gate
// evaluations undone and events/message the mean batch, beside the wall time
// per run. BenchmarkClusterForward (the repository root) times the sweep
// without records.
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
	b.ReportMetric(float64(st.RolledBackEvents)/float64(st.Events), "rolledback/executed")
	b.ReportMetric(float64(st.BatchedEvents)/float64(st.Batches), "events/message")
}
