package timewarp

import (
	"fmt"
	"slices"

	"repro/internal/netlist"
	"repro/internal/verilog"
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
// GateID order, then the own flip-flops likewise — so the gate table and
// the scratch marks over it are dense in the cluster's own gates.
type program struct {
	// Gate table, structure-of-arrays, indexed by local gate: [0, nComb)
	// are combinational, [nComb, len(kind)) flip-flops. A combinational
	// gate reads ins[inOff[g]:inOff[g+1]]; a flip-flop has exactly one
	// entry there, its d input (the clock is a global tick, not an event).
	nComb int32
	kind  []uint8 // verilog.GateKind
	out   []netlist.NetID
	inOff []uint32
	ins   []netlist.NetID

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

// compile builds cluster id's program for netlist nl partitioned by
// gateParts.
func compile(nl *netlist.Netlist, gateParts []int32, id int32, observe []netlist.NetID) *program {
	p := &program{
		sinkOff: make([]uint32, len(nl.Nets)+1),
		dstOff:  make([]uint32, len(nl.Nets)+1),
	}

	// Gate table: one pass for the combinational gates, one for the
	// flip-flops. sinkOff[n+1] meanwhile counts the own readers of net n.
	addGate := func(g *netlist.Gate, inputs []netlist.NetID) {
		p.kind = append(p.kind, uint8(g.Kind))
		p.out = append(p.out, g.Output)
		p.inOff = append(p.inOff, uint32(len(p.ins)))
		p.ins = append(p.ins, inputs...)
		for _, in := range g.Inputs { // every pin, as dsts below counts sinks
			if d := nl.Nets[in].Driver; d != netlist.NoGate && gateParts[d] != id {
				p.remoteIn = true
			}
		}
	}
	for gi := range nl.Gates {
		if g := &nl.Gates[gi]; gateParts[gi] == id && !g.Kind.Sequential() {
			addGate(g, g.Inputs)
			for _, in := range g.Inputs {
				p.sinkOff[in+1]++
			}
		}
	}
	p.nComb = int32(len(p.kind))
	for gi := range nl.Gates {
		if g := &nl.Gates[gi]; gateParts[gi] == id && g.Kind.Sequential() {
			addGate(g, g.Inputs[:1])
		}
	}
	p.inOff = append(p.inOff, uint32(len(p.ins)))

	// Counts → offsets, then fill in gate order; next[n] is the write
	// cursor of net n's range.
	for n := range nl.Nets {
		p.sinkOff[n+1] += p.sinkOff[n]
	}
	p.sinks = make([]int32, p.sinkOff[len(nl.Nets)])
	next := append([]uint32(nil), p.sinkOff[:len(nl.Nets)]...)
	for g := int32(0); g < p.nComb; g++ {
		for _, in := range p.ins[p.inOff[g]:p.inOff[g+1]] {
			p.sinks[next[in]] = g
			next[in]++
		}
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

// eval computes combinational gate g's output from the current net
// values. It must agree with sim.EvalGate on every kind and arity (the
// truth-table test holds the two together).
func (p *program) eval(g int32, values []bool) bool {
	ins := p.ins[p.inOff[g]:p.inOff[g+1]]
	switch k := verilog.GateKind(p.kind[g]); k {
	case verilog.GateNot:
		return !values[ins[0]]
	case verilog.GateBuf:
		return values[ins[0]]
	case verilog.GateAnd, verilog.GateNand:
		for _, in := range ins {
			if !values[in] {
				return k == verilog.GateNand
			}
		}
		return k == verilog.GateAnd
	case verilog.GateOr, verilog.GateNor:
		for _, in := range ins {
			if values[in] {
				return k == verilog.GateOr
			}
		}
		return k == verilog.GateNor
	case verilog.GateXor, verilog.GateXnor:
		acc := k == verilog.GateXnor
		for _, in := range ins {
			acc = acc != values[in]
		}
		return acc
	default:
		panic(fmt.Sprintf("timewarp: cannot evaluate gate kind %v", k))
	}
}

// readers returns the other clusters reading net n.
func (p *program) readers(n netlist.NetID) []int32 {
	return p.dsts[p.dstOff[n]:p.dstOff[n+1]]
}
