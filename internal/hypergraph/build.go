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
	b := &Builder{D: d, opened: make([]bool, len(d.Instances))}
	b.opened[d.Top.ID] = true
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

	h := &H{GateVertex: make([]VertexID, len(nl.Gates))}
	instVertex := make([]VertexID, len(d.Instances))
	for i := range instVertex {
		instVertex[i] = NoVertex
	}

	gw := func(g netlist.GateID) int {
		if b.GateWeights == nil {
			return 1
		}
		if w := b.GateWeights[g]; w > 0 {
			return w
		}
		return 1
	}

	// Super-gate vertices, in instance order for determinism.
	for _, inst := range d.Instances {
		if rep[inst.ID] == inst.ID {
			id := VertexID(len(h.Vertices))
			h.Vertices = append(h.Vertices, Vertex{
				ID: id, Name: inst.Path, Inst: inst, Gate: -1,
			})
			instVertex[inst.ID] = id
		}
	}
	// Ordinary-gate vertices: gates whose owner is fully open.
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		r := rep[g.Owner]
		if r == -1 {
			id := VertexID(len(h.Vertices))
			h.Vertices = append(h.Vertices, Vertex{
				ID: id, Name: g.Path, Weight: gw(g.ID), Inst: nil, Gate: g.ID,
			})
			h.GateVertex[gi] = id
		} else {
			h.GateVertex[gi] = instVertex[r]
			h.Vertices[instVertex[r]].Weight += gw(g.ID)
		}
	}
	// Empty wrapper instances still occupy a vertex of weight 1.
	for vi := range h.Vertices {
		if h.Vertices[vi].Weight == 0 {
			h.Vertices[vi].Weight = 1
		}
	}
	for vi := range h.Vertices {
		h.TotalWeight += h.Vertices[vi].Weight
	}

	// Hyperedges: one per net touching ≥ 2 distinct vertices.
	mark := make([]EdgeID, len(h.Vertices))
	for i := range mark {
		mark[i] = -1
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if net.Const >= 0 {
			// Constant nets never carry events, so they represent no
			// communication and are excluded from the hypergraph.
			continue
		}
		if nl.IsClockNet(netlist.NetID(ni)) {
			// Clock nets are broadcast as the synchronous cycle tick, not
			// as events, so they carry no partition communication either.
			continue
		}
		var pins []VertexID
		addPin := func(g netlist.GateID) {
			v := h.GateVertex[g]
			if mark[v] != EdgeID(ni) {
				mark[v] = EdgeID(ni)
				pins = append(pins, v)
			}
		}
		if net.Driver != netlist.NoGate {
			addPin(net.Driver)
		}
		for _, s := range net.Sinks {
			addPin(s)
		}
		if len(pins) < 2 {
			continue
		}
		id := EdgeID(len(h.Edges))
		h.Edges = append(h.Edges, Edge{ID: id, Net: netlist.NetID(ni), Pins: pins, Weight: 1})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, id)
		}
	}
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
