package timewarp

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sim"
)

// program is the static half of one cluster: the flat read-only arrays
// that locate what the cycle exchanges with the other clusters and records,
// so that ship, apply and the observation index slices instead of hashing
// net ids or chasing *netlist.Gate pointers. compile builds it once, with
// the cluster's sim.Machine, which holds the cycle itself: the own
// combinational gates and the copies (replicas), a slice of the host's
// sim.Sweep table fused by sim.Fuse, the own flip-flops, whose q's are
// slots 0.., and the stimulus. Every index below is a slot of that
// machine.
//
// A link carries no net id: a frame from a sender to a receiver holds one
// bit per flip-flop of the sender that the receiver's records or latch
// read, in the sender's flip-flop order. The receiver reads that list off
// its machine's inputs, and compileAll hands it to the sender, so both
// ends of a link read one list (DESIGN §20).
type program struct {
	// gates is how many gates one cycle evaluates: the own ones, flip-flops
	// included, and the copies, folded or dropped ones included. A copy is
	// another cluster's gate this cluster evaluates too, so that no net a
	// combinational gate drives is ever sent: its output is never
	// observed, sent or latched.
	gates int

	// obsOwn are the observed nets this cluster records, obsSlot their
	// slots: those an own gate drives, and on cluster 0 the driverless
	// ones (PIs, constants).
	obsOwn  []netlist.NetID
	obsSlot []int32

	// senders are the other clusters whose flip-flop outputs a record or
	// the latch reads, ascending — exactly the clusters whose programs list
	// this one among their receivers. A cluster without senders is never
	// sent a frame, and waits for no watermark. inSlot[inOff[j]:inOff[j+1]]
	// (CSR, inputs) are the slots of the flip-flop outputs of senders[j]
	// this cluster reads, in senders[j]'s flip-flop order: bit i of a frame
	// from it is the value of inputs(j)[i].
	senders []int32
	inOff   []uint32
	inSlot  []int32
	// receivers are the other clusters reading an own flip-flop's output,
	// ascending: those this one sends frames to.
	// linkFF[linkOff[j]:linkOff[j+1]] (CSR, link) are the own flip-flops
	// receivers[j] reads, ascending: bit i of a frame to it is flip-flop
	// link(j)[i]'s q.
	receivers []int32
	linkOff   []uint32
	linkFF    []int32
}

// Tables returns, for each of the k clusters of gateParts, how many other
// clusters' combinational gates it evaluates as copies in a run (DESIGN
// §20), what replication adds to its cycle, and how many fused records its
// table settles when the run observes the primary outputs (the default).
func Tables(nl *netlist.Netlist, gateParts []int32, k int) (copies, records []int, err error) {
	if err := checkPartition(k, gateParts); err != nil {
		return nil, nil, err
	}
	if len(gateParts) != len(nl.Gates) {
		return nil, nil, fmt.Errorf("timewarp: GateParts covers %d gates, netlist has %d", len(gateParts), len(nl.Gates))
	}
	sw, err := sim.NewSweep(nl)
	if err != nil {
		return nil, nil, err
	}
	progs, machs := compileAll(sw, gateParts, k, nl.POs)
	copies, records = make([]int, k), make([]int, k)
	for c := range k {
		copies[c], records[c] = progs[c].gates, len(machs[c].Records())
	}
	for _, c := range gateParts {
		copies[c]-- // an own gate is no copy
	}
	return copies, records, nil
}

// compileAll builds the programs and machines of all k clusters of
// gateParts, concurrently, and links them: a cluster's receivers are the
// clusters that list it among their senders, and its list for each is the
// flip-flops whose q's that receiver's inputs from it hold, in their
// order. Every process of a run compiles all K clusters from the same
// netlist, partition and observe list, so both ends of a link agree on it
// across processes without a word on the wire.
func compileAll(sw *sim.Sweep, gateParts []int32, k int, observe []netlist.NetID) ([]*program, []sim.Machine) {
	progs, machs := make([]*program, k), make([]sim.Machine, k)
	par.Each(k, 0, func(c int) { progs[c], machs[c] = compile(sw, gateParts, int32(c), observe) })
	for r, p := range progs { // by receiver, so each sender's receivers ascend
		for j, s := range p.senders {
			q, qNets := progs[s], machs[s].Nets // flip-flop i's q is slot i
			if q.linkOff == nil {
				q.linkOff = []uint32{0}
			}
			q.receivers = append(q.receivers, int32(r))
			ff := int32(0)
			for _, slot := range p.inputs(j) { // in gate order, as the q slots are
				for qNets[ff] != machs[r].Nets[slot] {
					ff++
				}
				q.linkFF = append(q.linkFF, ff)
			}
			q.linkOff = append(q.linkOff, uint32(len(q.linkFF)))
		}
	}
	return progs, machs
}

// compile builds cluster id's program and machine for the netlist sw
// compiles, partitioned by gateParts, but for its receivers, which
// compileAll fills in.
func compile(sw *sim.Sweep, gateParts []int32, id int32, observe []netlist.NetID) (*program, sim.Machine) {
	nl := sw.NL
	p := &program{}
	// evaluates marks the own gates and the copies. The cluster copies the
	// driver of every net an own gate reads that another cluster's
	// combinational gate drives, and, the same way, whatever the copies
	// read: the walk stops at flip-flop outputs, stimulus inputs, constants
	// and the own gates. So every net read across the cut is a flip-flop's
	// output, read one cycle after it latched.
	evaluates := make([]bool, len(nl.Gates))
	var stack []netlist.GateID
	for g := range nl.Gates {
		if gateParts[g] != id || evaluates[g] { // an own gate a walk met was walked then
			continue
		}
		evaluates[g] = true
		stack = append(stack, netlist.GateID(g))
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.gates++
			for _, in := range nl.Gates[g].Inputs {
				if d := nl.Nets[in].Driver; d != netlist.NoGate && !evaluates[d] && !nl.Gates[d].Kind.Sequential() {
					evaluates[d] = true
					stack = append(stack, d)
				}
			}
		}
	}

	// The machine names the observed nets this cluster records, which keeps
	// them live beside what a flip-flop or a gate this cluster does not
	// evaluate reads. It names no received net: one has a slot when a
	// record or the latch reads it, and only then does a link carry it.
	seen := make([]bool, len(nl.Nets))
	for _, n := range observe {
		owner := int32(0)
		if d := nl.Nets[n].Driver; d != netlist.NoGate {
			owner = gateParts[d]
		}
		if owner == id && !seen[n] { // observe may name a net twice
			p.obsOwn = append(p.obsOwn, n)
		}
		seen[n] = true
	}
	m, slots := sim.NewMachine(sw, evaluates, p.obsOwn)
	p.obsSlot = slots

	// The inputs the records and the latch read that another cluster
	// drives are its flip-flops' q's, since the cluster evaluates every
	// combinational gate it reads: by owner, then in the owner's flip-flop
	// (gate) order, they are the links' bits.
	type remote struct {
		owner int32
		ff    netlist.GateID
		slot  int32
	}
	var in []remote
	for s, n := range m.Nets[:m.Base] {
		if d := nl.Nets[n].Driver; d != netlist.NoGate && gateParts[d] != id {
			in = append(in, remote{gateParts[d], d, int32(s)})
		}
	}
	slices.SortFunc(in, func(a, b remote) int { return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.ff, b.ff)) })
	for i, r := range in {
		if i == 0 || r.owner != in[i-1].owner {
			p.senders = append(p.senders, r.owner)
			p.inOff = append(p.inOff, uint32(i))
		}
		p.inSlot = append(p.inSlot, r.slot)
	}
	if len(in) > 0 { // a cluster without senders keeps no offsets
		p.inOff = append(p.inOff, uint32(len(in)))
	}
	return p, m
}

// link returns the own flip-flops receivers[j] reads, the bits of a frame
// to it.
func (p *program) link(j int) []int32 {
	return p.linkFF[p.linkOff[j]:p.linkOff[j+1]]
}

// inputs returns the slots a frame from senders[j] writes, one per bit.
func (p *program) inputs(j int) []int32 {
	return p.inSlot[p.inOff[j]:p.inOff[j+1]]
}

// frameWords is the length in words of a frame carrying n values.
func frameWords(n int) int { return (n + 63) / 64 }

// pack writes the values of slots idx into words, bit i of the frame
// holding vals[idx[i]], and zeroes the padding bits.
func pack(words []uint64, vals []bool, idx []int32) {
	clear(words)
	for i, s := range idx {
		words[i>>6] |= uint64(b2i(vals[s])) << (i & 63)
	}
}

// unpack writes bit i of words into vals[idx[i]]: pack's inverse.
func unpack(vals []bool, idx []int32, words []uint64) {
	for i, s := range idx {
		vals[s] = words[i>>6]>>(i&63)&1 != 0
	}
}

// cycleCost is the gate evaluations of one executed cycle: every own gate,
// flip-flops too, and every copy, once (DESIGN §26). It counts netlist
// gates, not records: a fused record evaluates all the gates folded into
// it.
func (p *program) cycleCost() uint64 { return uint64(p.gates) }
