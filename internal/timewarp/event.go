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
// cycle applies every event for it before it settles. That one-cycle
// lookahead makes the kernel conservative: after each cycle a cluster
// sends a watermark behind its events on every link, and before each
// cycle it waits until the link from each of its senders has delivered
// the watermark for that cycle — on every transport, direct delivery, the
// chaos schedule and a distributed run's sockets alike. Nothing is ever
// executed ahead of its inputs, so nothing is rolled back, and an event
// that arrives for a cycle already executed fails the run. A run over any
// partitioning commits exactly the same per-cycle waveforms as
// sim.Simulator — the correctness property the tests assert.
package timewarp

import (
	"cmp"

	"repro/internal/netlist"
)

// event is a net value change sent between clusters for cycle T, the
// receiver's cycle that reads it.
type event struct {
	T   uint64
	Net netlist.NetID
	Val bool
	Src int32
	Seq uint64 // per-source sequence number
}

// cmpEvent orders events by (T, Src, Seq): the order of a cluster's input
// queue, hence the order events are consumed in.
func cmpEvent(a, b event) int {
	return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
}

// batch is the transport payload coalescing events one cluster emits to one
// destination within a cycle into a single comm.Message, which leaves at
// the end of the cycle. Order within the batch, and from batch to batch, is
// send order, so per-link FIFO survives batching: the receiver unpacks
// sequentially, and the watermark the sender marks after the batch
// arrives behind it.
type batch []event
