package timewarp

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// program is one cluster compiled to flat read-only arrays: everything the
// cycle needs to know about the netlist and the partition, laid out so that
// processCycle, send and cancel index slices instead of hashing net ids or
// chasing *netlist.Gate pointers. It is built once in newCluster and never
// written afterwards.
//
// Nets keep their global netlist.NetID: values, events and rollback records
// are net-indexed, and a net id is what clusters exchange. Every cluster has
// the one layout: its combinational gates, copies included, are a slice of
// the host's sim.Sweep table fused by sim.Fuse, its flip-flops a table of
// their own.
type program struct {
	// tab are the own combinational gates and the copies (replicas) as
	// sim.FusedGate records, in the host's sim.Sweep topological order: a
	// gate whose output nothing but one other gate of the table reads is
	// folded into that gate's record while it keeps at most four inputs
	// (the live rule, compile). A copy is
	// another cluster's gate this cluster evaluates too, so that no net a
	// combinational gate drives is ever sent: its output is never
	// observed, sent or latched.
	tab []sim.FusedGate
	// gates is how many own gates and copies tab evaluates, folded ones
	// included.
	gates int
	// latch are the own flip-flops: d input, q output, and whether another
	// cluster reads q. The clock is a global tick, not an event.
	latch []latchGate

	// dsts[dstOff[n]:dstOff[n+1]] are the other clusters reading net n
	// (CSR by NetID, one offset per net plus one), non-empty only when an
	// own flip-flop drives n.
	dstOff []uint32
	dsts   []int32

	// ownPIs are the stimulus inputs read by own gates or copies (cluster
	// 0 mirrors all of them, to observe driverless nets); piPos[i] is the
	// position of ownPIs[i] in the stimulus vector, vecWidth that
	// vector's length.
	ownPIs   []netlist.NetID
	piPos    []int32
	vecWidth int

	// obsOwn are the observed nets this cluster records: those an own gate
	// drives, and on cluster 0 the driverless ones (PIs, constants).
	obsOwn []netlist.NetID

	// senders are the other clusters whose flip-flop outputs an own gate or
	// a copy reads, ascending — exactly the clusters whose programs list
	// this one in their dsts. A cluster without senders is never sent an
	// event, and waits for no watermark.
	senders []int32
	// receivers are the clusters listed in dsts, ascending: those this one
	// sends events to.
	receivers []int32
}

// latchGate is one own flip-flop.
type latchGate struct {
	d, q   netlist.NetID
	remote bool
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
		records[c] = len(compile(sw, gateParts, rep, int32(c), nl.POs).tab)
	}
	return copies, records, nil
}

// compile builds cluster id's program for the netlist sw compiles,
// partitioned by gateParts and replicated by rep.
func compile(sw *sim.Sweep, gateParts []int32, rep *replicas, id int32, observe []netlist.NetID) *program {
	nl := sw.NL
	p := &program{dstOff: make([]uint32, len(nl.Nets)+1)}
	evaluates := func(g netlist.GateID) bool { // own gate or copy
		return gateParts[g] == id || slices.Contains(rep.copiers(g), id)
	}

	// The remote readers of own flip-flop outputs, each cluster once: a
	// cluster with an own gate or a copy among the net's sinks.
	for n := range nl.Nets {
		if d := nl.Nets[n].Driver; d != netlist.NoGate && gateParts[d] == id && nl.Gates[d].Kind.Sequential() {
			own := len(p.dsts)
			add := func(dst int32) {
				if dst != id && !slices.Contains(p.dsts[own:], dst) {
					p.dsts = append(p.dsts, dst)
				}
			}
			for _, s := range nl.Nets[n].Sinks {
				add(gateParts[s])
				for _, c := range rep.copiers(s) {
					add(c)
				}
			}
		}
		p.dstOff[n+1] = uint32(len(p.dsts))
	}
	for _, d := range p.dsts {
		if !slices.Contains(p.receivers, d) {
			p.receivers = append(p.receivers, d)
		}
	}
	slices.Sort(p.receivers)

	// Both gate tables are allocated at their final size: one pass counts
	// the gates this cluster evaluates and finds its senders, the next
	// fills the flip-flops in gate order.
	nComb, nLatch := 0, 0
	for gi := range nl.Gates {
		g := netlist.GateID(gi)
		switch {
		case !evaluates(g):
			continue
		case nl.Gates[gi].Kind.Sequential():
			nLatch++
		default:
			nComb++
		}
		for _, in := range nl.Gates[gi].Inputs {
			if d := nl.Nets[in].Driver; d != netlist.NoGate && gateParts[d] != id && nl.Gates[d].Kind.Sequential() &&
				!slices.Contains(p.senders, gateParts[d]) {
				p.senders = append(p.senders, gateParts[d])
			}
		}
	}
	slices.Sort(p.senders)
	p.latch = make([]latchGate, 0, nLatch)
	for gi := range nl.Gates {
		if g := &nl.Gates[gi]; gateParts[gi] == id && g.Kind.Sequential() {
			p.latch = append(p.latch, latchGate{d: g.Inputs[0], q: g.Output, remote: len(p.readers(g.Output)) > 0})
		}
	}

	for _, pi := range nl.PIs {
		if nl.IsClockNet(pi) {
			continue
		}
		read := id == 0
		for _, s := range nl.Nets[pi].Sinks {
			read = read || evaluates(s)
		}
		if read {
			p.ownPIs = append(p.ownPIs, pi)
			p.piPos = append(p.piPos, int32(p.vecWidth))
		}
		p.vecWidth++
	}

	// The live rule: an output of the table keeps its value after the
	// settle when observe names it, a flip-flop, a gate this cluster does
	// not evaluate or a wide gate reads it, or more than one gate of the
	// table does. No other code reads a net, so the rest are free for
	// sim.Fuse to fold away.
	live := make([]bool, len(nl.Nets))
	for _, n := range observe {
		owner := int32(0)
		if d := nl.Nets[n].Driver; d != netlist.NoGate {
			owner = gateParts[d]
		}
		if owner == id && !live[n] { // observe may name a net twice
			p.obsOwn = append(p.obsOwn, n)
		}
		live[n] = true
	}
	tab := sw.AppendSlice(make([]sim.TruthGate, 0, nComb), evaluates)
	for _, t := range tab {
		reader := netlist.NoGate
		for _, s := range nl.Nets[t.Out].Sinks {
			if g := &nl.Gates[s]; reader != netlist.NoGate && reader != s ||
				g.Kind.Sequential() || len(g.Inputs) > 2 || !evaluates(s) {
				live[t.Out] = true
				break
			}
			reader = s
		}
	}
	p.gates = len(tab)
	p.tab = sim.Fuse(nl, tab, func(n netlist.NetID) bool { return live[n] })
	return p
}

// readers returns the other clusters reading net n.
func (p *program) readers(n netlist.NetID) []int32 {
	return p.dsts[p.dstOff[n]:p.dstOff[n+1]]
}

// cycleCost is the gate evaluations of one executed cycle: every own gate,
// flip-flops too, and every copy, once (DESIGN §26). It counts netlist
// gates, not records: a fused record evaluates all the gates folded into
// it.
func (p *program) cycleCost() uint64 {
	return uint64(p.gates + len(p.latch))
}
