package hypergraph

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/netlist"
)

// Builder constructs hypergraph views of an elaborated design at varying
// levels of hierarchy exposure. An instance that is "opened" contributes
// its direct gates and child instances as separate vertices; a closed
// instance is a single super-gate vertex. The top instance is always open.
//
// Flattening a super-gate (paper §3.2) is Open followed by Build.
type Builder struct {
	D      *elab.Design
	opened []bool // by instance ID
	// silent[n] marks a net that is constant or a clock: it carries no
	// events, so no view has a hyperedge for it. Fixed per design.
	silent []bool
	// GateWeights optionally overrides the unit load of each netlist gate
	// (indexed by GateID). The paper's future-work extension weighs gates
	// by simulation activity instead of counting them equally; presim
	// event counts feed this. Nil means unit weights.
	GateWeights []int
}

// NewBuilder returns a builder with only the top instance opened — the
// paper's design-driven view: top-level gates plus one super-gate per
// top-level module instance.
func NewBuilder(d *elab.Design) *Builder {
	nl := d.Netlist
	b := &Builder{D: d, opened: make([]bool, len(d.Instances)), silent: make([]bool, len(nl.Nets))}
	b.opened[d.Top.ID] = true
	for ni := range nl.Nets {
		// Constant nets never carry events; clock nets are broadcast as the
		// synchronous cycle tick, not as events. Neither represents
		// partition communication.
		b.silent[ni] = nl.Nets[ni].Const >= 0 || nl.IsClockNet(netlist.NetID(ni))
	}
	return b
}

// Open exposes the contents of inst (its direct gates and child instances
// become vertices on the next Build). Opening an instance whose ancestors
// are closed also opens those ancestors, since a vertex boundary cannot
// exist inside a closed region.
func (b *Builder) Open(inst *elab.Instance) {
	for cur := inst; cur != nil; cur = cur.Parent {
		b.opened[cur.ID] = true
	}
}

// OpenAll opens every instance, producing the fully flattened hypergraph —
// the view hMetis-style algorithms operate on.
func (b *Builder) OpenAll() {
	for i := range b.opened {
		b.opened[i] = true
	}
}

// OpenToDepth opens every instance at depth < depth, so instances at
// exactly `depth` (and leaves above it) become the super-gates.
func (b *Builder) OpenToDepth(depth int) {
	for _, inst := range b.D.Instances {
		if inst.Depth < depth {
			b.opened[inst.ID] = true
		}
	}
}

// Build constructs the hypergraph for the current visibility.
func (b *Builder) Build() (*H, error) {
	d := b.D
	nl := d.Netlist

	// rep[i] = ID of the super-gate instance that absorbs instance i, or
	// -1 if instance i is fully open (its direct gates are vertices).
	// An instance is its own representative if it is closed but all its
	// ancestors are open; it inherits its parent's representative if some
	// ancestor is closed.
	rep := make([]int32, len(d.Instances))
	for _, inst := range d.Instances { // pre-order: parents first
		if inst.Parent == nil {
			if !b.opened[inst.ID] {
				return nil, fmt.Errorf("hypergraph: top instance must be open")
			}
			rep[inst.ID] = -1
			continue
		}
		if pr := rep[inst.Parent.ID]; pr != -1 {
			rep[inst.ID] = pr // buried inside a closed ancestor
		} else if b.opened[inst.ID] {
			rep[inst.ID] = -1
		} else {
			rep[inst.ID] = inst.ID // boundary super-gate
		}
	}

	// Vertices: super-gates in instance order, then ordinary gates (those
	// whose owner is fully open) in gate order.
	nv := 0
	for _, inst := range d.Instances {
		if rep[inst.ID] == inst.ID {
			nv++
		}
	}
	for gi := range nl.Gates {
		if rep[nl.Gates[gi].Owner] == -1 {
			nv++
		}
	}
	vertices := make([]Vertex, 0, nv)
	gateVertex := make([]VertexID, len(nl.Gates))
	instVertex := make([]VertexID, len(d.Instances))
	for _, inst := range d.Instances {
		if rep[inst.ID] == inst.ID {
			instVertex[inst.ID] = VertexID(len(vertices))
			vertices = append(vertices, Vertex{Name: inst.Path, Inst: inst, Gate: -1})
		}
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		w := 1
		if b.GateWeights != nil && b.GateWeights[gi] > 0 {
			w = b.GateWeights[gi]
		}
		if r := rep[g.Owner]; r == -1 {
			gateVertex[gi] = VertexID(len(vertices))
			vertices = append(vertices, Vertex{Name: g.Path, Weight: w, Gate: g.ID})
		} else {
			gateVertex[gi] = instVertex[r]
			vertices[instVertex[r]].Weight += w
		}
	}
	// Empty wrapper instances still occupy a vertex of weight 1.
	for vi := range vertices {
		if vertices[vi].Weight == 0 {
			vertices[vi].Weight = 1
		}
	}

	// Hyperedges: one per net touching ≥ 2 distinct vertices, pins in
	// driver-then-sink order. Pass 1 counts each net's distinct vertices
	// (stamp ni+1), pass 2 writes them into one array (stamp -(ni+1), so
	// the stamps need no reset) and rewinds a net that kept fewer than 2.
	// One spare slot holds such a net's lone pin after the last kept net.
	stamp := make([]int32, nv)
	nEdges, nPins := 0, 0
	for ni := range nl.Nets {
		if b.silent[ni] {
			continue
		}
		net, s, n := &nl.Nets[ni], int32(ni+1), int32(0)
		if net.Driver != netlist.NoGate {
			stamp[gateVertex[net.Driver]] = s
			n++
		}
		for _, g := range net.Sinks {
			if v := gateVertex[g]; stamp[v] != s {
				stamp[v] = s
				n++
			}
		}
		if n >= 2 {
			nEdges++
			nPins += int(n)
		}
	}
	edges := make([]Edge, 0, nEdges)
	pins := make([]VertexID, 0, nPins+1)
	for ni := range nl.Nets {
		if b.silent[ni] {
			continue
		}
		net, s, lo := &nl.Nets[ni], -int32(ni+1), len(pins)
		if net.Driver != netlist.NoGate {
			v := gateVertex[net.Driver]
			stamp[v] = s
			pins = append(pins, v)
		}
		for _, g := range net.Sinks {
			if v := gateVertex[g]; stamp[v] != s {
				stamp[v] = s
				pins = append(pins, v)
			}
		}
		if len(pins)-lo < 2 {
			pins = pins[:lo]
			continue
		}
		edges = append(edges, Edge{Net: netlist.NetID(ni), Pins: pins[lo:len(pins):len(pins)], Weight: 1})
	}
	h := New(vertices, edges)
	h.GateVertex = gateVertex
	return h, nil
}

// BuildHierarchical is a convenience: the design-driven view (top open,
// everything else closed).
func BuildHierarchical(d *elab.Design) (*H, error) {
	return NewBuilder(d).Build()
}

// BuildFlat is a convenience: the fully flattened view.
func BuildFlat(d *elab.Design) (*H, error) {
	b := NewBuilder(d)
	b.OpenAll()
	return b.Build()
}
