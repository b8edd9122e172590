package timewarp

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
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
// bit per flip-flop of the sender the receiver reads, in the sender's
// flip-flop order, and both ends derive that list from the netlist, the
// partition and the copies alone (DESIGN §20).
type program struct {
	// gates is how many gates one cycle evaluates: the own ones, flip-flops
	// included, and the copies, folded ones included. A copy is another
	// cluster's gate this cluster evaluates too, so that no net a
	// combinational gate drives is ever sent: its output is never
	// observed, sent or latched.
	gates int

	// obsOwn are the observed nets this cluster records, obsSlot their
	// slots: those an own gate drives, and on cluster 0 the driverless
	// ones (PIs, constants).
	obsOwn  []netlist.NetID
	obsSlot []int32

	// senders are the other clusters whose flip-flop outputs an own gate or
	// a copy reads, ascending — exactly the clusters whose programs list
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

// replicas are every cluster's copies, computed once per host from the
// netlist and the partition alone, so that every process of a run agrees
// on them: copiers(g) lists, ascending, the clusters other than g's owner
// that evaluate combinational gate g themselves. A cluster copies the
// driver of every net one of its gates reads that another cluster's
// combinational gate drives, and, the same way, whatever the copies read:
// the walk stops at flip-flop outputs, stimulus inputs, constants and the
// cluster's own gates. So every net read across the cut is a flip-flop's
// output, read one cycle after it latched.
type replicas struct {
	off []uint32 // CSR by GateID, one offset per gate plus one
	by  []int32
}

// replicate computes the copies of a k-way partition of nl.
func replicate(nl *netlist.Netlist, gateParts []int32, k int) *replicas {
	type copyOf struct {
		g  netlist.GateID
		by int32
	}
	var (
		found []copyOf
		stack []netlist.GateID
		mark  = make([]int32, len(nl.Gates)) // c+1: cluster c copies the gate
	)
	for c := int32(0); c < int32(k); c++ {
		visit := func(n netlist.NetID) {
			d := nl.Nets[n].Driver
			if d != netlist.NoGate && gateParts[d] != c && mark[d] != c+1 && !nl.Gates[d].Kind.Sequential() {
				mark[d] = c + 1
				found = append(found, copyOf{d, c})
				stack = append(stack, d)
			}
		}
		for gi := range nl.Gates {
			if gateParts[gi] != c {
				continue
			}
			for _, in := range nl.Gates[gi].Inputs {
				visit(in)
			}
			for len(stack) > 0 {
				d := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, in := range nl.Gates[d].Inputs {
					visit(in)
				}
			}
		}
	}
	r := &replicas{off: make([]uint32, len(nl.Gates)+1), by: make([]int32, len(found))}
	for _, f := range found {
		r.off[f.g+1]++
	}
	for g := range nl.Gates {
		r.off[g+1] += r.off[g]
	}
	fill := slices.Clone(r.off[:len(nl.Gates)])
	for _, f := range found { // by cluster, so each list is ascending
		r.by[fill[f.g]] = f.by
		fill[f.g]++
	}
	return r
}

// copiers returns the clusters that copy gate g.
func (r *replicas) copiers(g netlist.GateID) []int32 {
	return r.by[r.off[g]:r.off[g+1]]
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
	rep := replicate(nl, gateParts, k)
	copies, records = make([]int, k), make([]int, k)
	for _, c := range rep.by {
		copies[c]++
	}
	for c := range records {
		_, m := compile(sw, gateParts, rep, int32(c), nl.POs)
		records[c] = len(m.Records())
	}
	return copies, records, nil
}

// compile builds cluster id's program and machine for the netlist sw
// compiles, partitioned by gateParts and replicated by rep.
func compile(sw *sim.Sweep, gateParts []int32, rep *replicas, id int32, observe []netlist.NetID) (*program, sim.Machine) {
	nl := sw.NL
	p := &program{}
	// evaluates marks the own gates and the copies.
	evaluates := make([]bool, len(nl.Gates))
	for g := range evaluates {
		evaluates[g] = gateParts[g] == id || slices.Contains(rep.copiers(netlist.GateID(g)), id)
	}

	// One pass counts the gates this cluster evaluates and marks what it
	// reads of other clusters' flip-flops; the next numbers its own
	// flip-flops, in gate order, and lists, in the same order, every
	// cluster's flip-flops it reads, a list per sender: a link's order on
	// both of its ends. A flip-flop's output is read by every cluster with
	// an own gate or a copy among the net's sinks.
	reads := make([]bool, len(nl.Nets))
	for gi := range nl.Gates {
		if !evaluates[gi] {
			continue
		}
		p.gates++
		for _, in := range nl.Gates[gi].Inputs {
			if d := nl.Nets[in].Driver; d != netlist.NoGate && gateParts[d] != id && nl.Gates[d].Kind.Sequential() {
				reads[in] = true
				if !slices.Contains(p.senders, gateParts[d]) {
					p.senders = append(p.senders, gateParts[d])
				}
			}
		}
	}
	slices.Sort(p.senders)
	in := make([][]netlist.NetID, len(p.senders)) // the nets of each sender's frames
	var out [][]int32                             // the flip-flops of each receiver's frames, by cluster
	ff := int32(-1)                               // the own flip-flop at hand
	for gi := range nl.Gates {
		if !nl.Gates[gi].Kind.Sequential() {
			continue
		}
		q := nl.Gates[gi].Output
		if owner := gateParts[gi]; owner != id {
			if reads[q] {
				j := slices.Index(p.senders, owner)
				in[j] = append(in[j], q)
			}
			continue
		}
		ff++
		add := func(dst int32) {
			if dst == id {
				return
			}
			if int(dst) >= len(out) {
				out = append(out, make([][]int32, int(dst)+1-len(out))...)
			}
			if l := out[dst]; len(l) == 0 || l[len(l)-1] != ff { // ff is the last one listed yet
				out[dst] = append(l, ff)
			}
		}
		for _, s := range nl.Nets[q].Sinks {
			add(gateParts[s])
			for _, c := range rep.copiers(s) {
				add(c)
			}
		}
	}
	// A cluster without receivers, or without senders, keeps no offsets.
	if len(out) > 0 {
		p.linkOff = make([]uint32, 1, len(out)+1)
	}
	for dst, ffs := range out {
		if len(ffs) > 0 {
			p.receivers = append(p.receivers, int32(dst))
			p.linkFF = append(p.linkFF, ffs...)
			p.linkOff = append(p.linkOff, uint32(len(p.linkFF)))
		}
	}
	if len(in) > 0 {
		p.inOff = make([]uint32, 1, len(in)+1)
	}
	var remote []netlist.NetID
	for _, nets := range in {
		remote = append(remote, nets...)
		p.inOff = append(p.inOff, uint32(len(remote)))
	}

	// The observed nets this cluster records and the received ones are the
	// nets it touches outside the machine's cycle: the machine names them,
	// which keeps them live beside what a flip-flop or a gate this cluster
	// does not evaluate reads.
	seen := reads
	clear(seen)
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
	m, slots := sim.NewMachine(sw, evaluates, slices.Concat(p.obsOwn, remote))
	p.obsSlot, p.inSlot = slots[:len(p.obsOwn)], slots[len(p.obsOwn):]
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
