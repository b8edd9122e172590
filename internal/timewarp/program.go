package timewarp

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// program is one cluster compiled to flat read-only arrays: everything the
// per-event path needs to know about the netlist and the partition, laid
// out so that processCycle, send and cancel index slices instead of
// hashing net ids or chasing *netlist.Gate pointers. It is built once in
// newCluster and never written afterwards.
//
// Nets keep their global netlist.NetID: values, events and rollback records
// are net-indexed, and a net id is what clusters exchange. Gates are
// renumbered cluster-locally — the own combinational gates in ascending
// GateID order, the own flip-flops likewise in a table of their own — so
// the gate table and the scratch marks over it are dense in the cluster's
// own gates.
type program struct {
	// gates are the own combinational gates, indexed by local gate: each
	// one 16-byte record of its inputs, output and truth table
	// (sim.TruthGate), and whether another cluster reads its output. A
	// gate of more than two inputs is evaluated by sim.EvalGate from its
	// netlist gate (TT == sim.Wide).
	gates []gate
	// latch are the own flip-flops: d input, q output, and whether another
	// cluster reads q. The clock is a global tick, not an event.
	latch []latchGate

	// Fan-out, CSR by NetID (offset arrays have one entry per net plus
	// one). sinks[sinkOff[n]:sinkOff[n+1]] are the own combinational
	// readers of net n in ascending order — the order a delta evaluates
	// them in; dsts[dstOff[n]:dstOff[n+1]] are the other clusters reading
	// n, non-empty only when an own gate drives n.
	sinkOff []uint32
	sinks   []int32
	dstOff  []uint32
	dsts    []int32

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

// gate is one own combinational gate. remote says its output has readers
// in other clusters, so a change of it is sent.
type gate struct {
	sim.TruthGate
	remote bool
}

// latchGate is one own flip-flop.
type latchGate struct {
	d, q   netlist.NetID
	remote bool
}

// compile builds cluster id's program for netlist nl partitioned by
// gateParts.
func compile(nl *netlist.Netlist, gateParts []int32, id int32, observe []netlist.NetID) *program {
	p := &program{
		sinkOff: make([]uint32, len(nl.Nets)+1),
		dstOff:  make([]uint32, len(nl.Nets)+1),
	}

	// Remote readers of own-driven nets, each cluster once.
	for n := range nl.Nets {
		if d := nl.Nets[n].Driver; d != netlist.NoGate && gateParts[d] == id {
			own := len(p.dsts)
			for _, s := range nl.Nets[n].Sinks {
				if dst := gateParts[s]; dst != id && !slices.Contains(p.dsts[own:], dst) {
					p.dsts = append(p.dsts, dst)
				}
			}
		}
		p.dstOff[n+1] = uint32(len(p.dsts))
	}
	remote := func(n netlist.NetID) bool { return p.dstOff[n] != p.dstOff[n+1] }

	// Gate tables, each allocated at its final size: one pass counts the
	// own gates, and sinkOff[n+1] the own combinational readers of net n.
	nComb, nLatch := 0, 0
	for gi := range nl.Gates {
		if gateParts[gi] != id {
			continue
		}
		g := &nl.Gates[gi]
		for _, in := range g.Inputs { // every pin, as dsts above counts sinks
			if d := nl.Nets[in].Driver; d != netlist.NoGate && gateParts[d] != id {
				p.remoteIn = true
			}
		}
		if g.Kind.Sequential() {
			nLatch++
			continue
		}
		nComb++
		for _, in := range g.Inputs {
			p.sinkOff[in+1]++
		}
	}

	// Counts → offsets, then a second pass fills the tables in gate order;
	// next[n] is the write cursor of net n's range.
	for n := range nl.Nets {
		p.sinkOff[n+1] += p.sinkOff[n]
	}
	p.sinks = make([]int32, p.sinkOff[len(nl.Nets)])
	next := append([]uint32(nil), p.sinkOff[:len(nl.Nets)]...)
	p.gates = make([]gate, 0, nComb)
	p.latch = make([]latchGate, 0, nLatch)
	for gi := range nl.Gates {
		if gateParts[gi] != id {
			continue
		}
		g := &nl.Gates[gi]
		if g.Kind.Sequential() {
			p.latch = append(p.latch, latchGate{d: g.Inputs[0], q: g.Output, remote: remote(g.Output)})
			continue
		}
		l := int32(len(p.gates))
		p.gates = append(p.gates, gate{TruthGate: sim.CompileGate(nl, g.ID), remote: remote(g.Output)})
		for _, in := range g.Inputs {
			p.sinks[next[in]] = l
			next[in]++
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
