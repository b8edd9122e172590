// Package timewarp is a parallel discrete-event simulation kernel for
// gate-level netlists — the role OOCTW (object-oriented Clustered Time Warp)
// plays under DVS in the paper. Each partition of the netlist becomes a
// cluster of logic owned by one goroutine ("machine"); clusters exchange
// the values of the nets they share through the comm network.
//
// Each cluster executes a cycle on a sim.Machine over its own gates (one
// sim.Settle of its fused slice of the sequential sweep's table, then the
// latch): the machine sim.Levelized runs over the whole table. A cluster
// also evaluates, as copies, the combinational fan-in cones of every net
// it reads that another cluster's combinational gate drives, so the only
// nets that cross the cut are flip-flop outputs, each read one cycle after
// it latched. So a link carries, once per cycle, the values of a fixed
// list of the sender's flip-flops, which both ends derive from the netlist
// and the partition: after its latch a sender packs the values a receiver
// reads into one frame, stamped with the cycle after the one that latched
// them, and ships it when any of them changed; a cycle scatters every
// frame for it into its slots before it settles. That one-cycle lookahead
// makes the kernel conservative: after each cycle a cluster sends a
// watermark behind its frames on every link, and before each cycle it
// waits until the link from each of its senders has delivered the
// watermark for that cycle — on every transport, direct delivery, the
// chaos schedule and a distributed run's sockets alike. Nothing is ever
// executed ahead of its inputs, so nothing is rolled back, and a frame
// that arrives for a cycle already executed fails the run. A run over any
// partitioning commits exactly the same per-cycle waveforms as
// sim.Simulator — the correctness property the tests assert.
package timewarp

// frame is the one payload of a link: for cycle T, the receiver's cycle
// that reads them, the values of the flip-flops of cluster Src the
// receiver reads, bit i of Words being the i-th of them in Src's
// flip-flop order (program.link on the sender, program.inputs on the
// receiver), the padding bits of the last word zero. A frame is never
// written after it is sent: the receiver only reads it.
type frame struct {
	T     uint64
	Src   int32
	Words []uint64
}
