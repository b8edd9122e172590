// Package timewarp is a parallel discrete-event simulation kernel for
// gate-level netlists — the role OOCTW (object-oriented Clustered Time Warp)
// plays under DVS in the paper. Each partition of the netlist becomes a
// cluster of logic owned by one goroutine ("machine"); clusters exchange
// net-change events through the comm network.
//
// Each cluster executes a cycle by one levelized sweep of its own gates
// (sim.Settle over its slice of the sequential sweep's table). A cluster
// also evaluates, as copies, the combinational fan-in cones of every net
// it reads that another cluster's combinational gate drives, so the only
// nets that cross the cut are flip-flop outputs: an event is a flip-flop's
// change, stamped with the cycle after the one that latched it, and a
// cycle applies every event for it before it settles. With every cluster
// in one process and direct delivery, a cluster waits until its senders
// have finished the cycle before and never speculates. Over any other
// transport — the chaos schedule, a distributed run's sockets — it runs
// optimistically ahead of its peers and repairs causality violations by
// rolling back — writing back what the undone cycles overwrote —
// cancelling already-sent events with anti-messages, and replaying. Either
// way a run over any partitioning commits exactly the same per-cycle
// waveforms as sim.Simulator — the correctness property the tests assert.
package timewarp

import (
	"cmp"

	"repro/internal/netlist"
	"repro/internal/obs/causality"
)

// event is a net value change sent between clusters for cycle T, the
// receiver's cycle that reads it.
type event struct {
	T    uint64
	Net  netlist.NetID
	Val  bool
	Anti bool
	Src  int32
	Seq  uint64 // per-source sequence number; anti-messages repeat it
	// Parent is the remote event whose consumption preceded this send in
	// the generating cycle, and Origin the straggler-origin id blame
	// propagates through rollback re-execution and anti-messages. Both
	// zero when causality recording is off (Config.Causality nil).
	Parent causality.EventID
	Origin causality.EventID
}

// cmpEvent orders events by (T, Src, Seq): the order of a cluster's input
// queue, hence the order events are consumed and replayed in. An
// anti-message repeats all three of its positive's, so it compares equal to
// the event it cancels.
func cmpEvent(a, b event) int {
	return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
}

// batch is the transport payload coalescing events one cluster emits to one
// destination within a cycle into a single comm.Message, which leaves at
// the end of the cycle. Order within the batch, and from batch to batch, is
// send order, so per-link FIFO survives batching: the receiver unpacks
// sequentially and an anti-message can never overtake the positive it
// cancels.
type batch []event
