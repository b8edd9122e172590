package timewarp

import (
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
// the one layout: its combinational gates are a slice of the host's
// sim.Sweep table, its flip-flops a table of their own.
type program struct {
	// tab are the own combinational gates, in the host's sim.Sweep
	// topological order; bound are those of their outputs another cluster
	// reads, in the same order.
	tab   []sim.TruthGate
	bound []netlist.NetID
	// latch are the own flip-flops: d input, q output, and whether another
	// cluster reads q. The clock is a global tick, not an event.
	latch []latchGate

	// dsts[dstOff[n]:dstOff[n+1]] are the other clusters reading net n
	// (CSR by NetID, one offset per net plus one), non-empty only when an
	// own gate drives n.
	dstOff []uint32
	dsts   []int32

	// ownPIs are the stimulus inputs read by own gates (cluster 0 mirrors
	// all of them, to observe driverless nets); piPos[i] is the position
	// of ownPIs[i] in the stimulus vector, vecWidth that vector's length.
	ownPIs   []netlist.NetID
	piPos    []int32
	vecWidth int

	// obsOwn are the observed nets this cluster records: those an own gate
	// drives, and on cluster 0 the driverless ones (PIs, constants).
	obsOwn []netlist.NetID

	// remoteIn says some own gate is a sink of a net another cluster drives
	// — exactly when that cluster's program lists this one in its dsts. A
	// cluster for which it is false is never sent an event, so it can meet
	// no straggler and is never rolled back: remoteIn is what decides
	// whether a cluster keeps rollback state (newCluster).
	remoteIn bool
}

// latchGate is one own flip-flop.
type latchGate struct {
	d, q   netlist.NetID
	remote bool
}

// compile builds cluster id's program for the netlist sw compiles,
// partitioned by gateParts.
func compile(sw *sim.Sweep, gateParts []int32, id int32, observe []netlist.NetID) *program {
	nl := sw.NL
	p := &program{dstOff: make([]uint32, len(nl.Nets)+1)}

	// Remote readers of own-driven nets, each cluster once, and whether an
	// own gate reads a net another cluster drives: one scan of every sink.
	for n := range nl.Nets {
		if d := nl.Nets[n].Driver; d != netlist.NoGate {
			own := len(p.dsts)
			for _, s := range nl.Nets[n].Sinks {
				switch dst := gateParts[s]; {
				case gateParts[d] != id:
					p.remoteIn = p.remoteIn || dst == id
				case dst != id && !slices.Contains(p.dsts[own:], dst):
					p.dsts = append(p.dsts, dst)
				}
			}
		}
		p.dstOff[n+1] = uint32(len(p.dsts))
	}
	remote := func(n netlist.NetID) bool { return p.dstOff[n] != p.dstOff[n+1] }

	// Both gate tables are allocated at their final size: one pass counts
	// the own gates, the next fills the flip-flops in gate order.
	nComb, nLatch := 0, 0
	for gi := range nl.Gates {
		switch {
		case gateParts[gi] != id:
		case nl.Gates[gi].Kind.Sequential():
			nLatch++
		default:
			nComb++
		}
	}
	p.latch = make([]latchGate, 0, nLatch)
	for gi := range nl.Gates {
		if g := &nl.Gates[gi]; gateParts[gi] == id && g.Kind.Sequential() {
			p.latch = append(p.latch, latchGate{d: g.Inputs[0], q: g.Output, remote: remote(g.Output)})
		}
	}
	p.tab = sw.AppendSlice(make([]sim.TruthGate, 0, nComb), func(g netlist.GateID) bool { return gateParts[g] == id })
	for _, t := range p.tab {
		if remote(t.Out) {
			p.bound = append(p.bound, t.Out)
		}
	}

	for _, pi := range nl.PIs {
		if nl.IsClockNet(pi) {
			continue
		}
		readByOwn := id == 0
		for _, s := range nl.Nets[pi].Sinks {
			readByOwn = readByOwn || gateParts[s] == id
		}
		if readByOwn {
			p.ownPIs = append(p.ownPIs, pi)
			p.piPos = append(p.piPos, int32(p.vecWidth))
		}
		p.vecWidth++
	}

	listed := make([]bool, len(nl.Nets)) // observe may name a net twice
	for _, n := range observe {
		owner := int32(0)
		if d := nl.Nets[n].Driver; d != netlist.NoGate {
			owner = gateParts[d]
		}
		if owner == id && !listed[n] {
			listed[n] = true
			p.obsOwn = append(p.obsOwn, n)
		}
	}
	return p
}

// readers returns the other clusters reading net n.
func (p *program) readers(n netlist.NetID) []int32 {
	return p.dsts[p.dstOff[n]:p.dstOff[n+1]]
}
