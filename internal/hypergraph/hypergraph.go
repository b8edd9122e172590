// Package hypergraph models a circuit as a weighted hypergraph, the data
// structure both partitioners in this repository consume.
//
// Following the paper (§3), a vertex is either an ordinary gate or a
// Verilog module instance treated as a "super-gate", weighted by the number
// of primitive gates it contains. Hyperedges are nets that connect at least
// two distinct vertices; nets entirely inside one super-gate do not appear,
// which is exactly why the hierarchical hypergraph is much smaller than the
// flattened one.
package hypergraph

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/netlist"
)

// VertexID indexes H.Vertices.
type VertexID int32

// EdgeID indexes H.Edges.
type EdgeID int32

// NoVertex marks an absent vertex reference.
const NoVertex VertexID = -1

// Vertex is a gate or super-gate.
type Vertex struct {
	ID     VertexID
	Name   string
	Weight int // number of primitive gates represented
	// Inst is non-nil for a super-gate (a closed module instance).
	Inst *elab.Instance
	// Gate is the netlist gate for an ordinary-gate vertex (Inst == nil).
	Gate netlist.GateID
	// Edges lists the incident hyperedges in ascending order. It is a
	// read-only view into storage shared by every vertex of the
	// hypergraph: never append to it or write through it.
	Edges []EdgeID
}

// IsSuper reports whether the vertex is a super-gate.
func (v *Vertex) IsSuper() bool { return v.Inst != nil }

// Edge is a hyperedge (a net spanning ≥ 2 vertices).
type Edge struct {
	ID  EdgeID
	Net netlist.NetID
	// Pins lists the distinct vertices on the net. It is a read-only view
	// into storage shared by every edge of the hypergraph: never append to
	// it or write through it.
	Pins   []VertexID
	Weight int // unit for all nets in this repository
}

// H is the hypergraph.
type H struct {
	Vertices []Vertex
	Edges    []Edge
	// GateVertex maps every netlist gate to the vertex that contains it
	// (its own vertex, or the enclosing super-gate). It lets partition
	// assignments survive flattening.
	GateVertex []VertexID
	// TotalWeight is the sum of vertex weights: the gate count (or the
	// gate weights' sum) plus one for every closed instance that contains
	// no gate, since such a vertex still weighs 1.
	TotalWeight int
}

// New returns the hypergraph over vertices and edges, keeping both
// slices and every edge's Pins. It numbers the vertices and edges, sums
// TotalWeight, and lays every vertex's Edges, in edge order, out as a
// capacity-capped view of one shared array. Each edge's Pins must be
// distinct, in-range vertices. GateVertex is left to the caller.
func New(vertices []Vertex, edges []Edge) *H {
	h := &H{Vertices: vertices, Edges: edges}
	// off[v+1] counts v's incidences; the prefix sum makes off[v] the
	// start of v's run in inc, which appends then fill within its cap.
	off := make([]int32, len(vertices)+1)
	for ei := range edges {
		edges[ei].ID = EdgeID(ei)
		for _, p := range edges[ei].Pins {
			off[p+1]++
		}
	}
	for vi := range vertices {
		vertices[vi].ID = VertexID(vi)
		h.TotalWeight += vertices[vi].Weight
		off[vi+1] += off[vi]
	}
	inc := make([]EdgeID, off[len(vertices)])
	for vi := range vertices {
		lo, hi := off[vi], off[vi+1]
		vertices[vi].Edges = inc[lo:lo:hi]
	}
	for ei := range edges {
		for _, p := range edges[ei].Pins {
			vertices[p].Edges = append(vertices[p].Edges, EdgeID(ei))
		}
	}
	return h
}

// NumVertices returns the vertex count.
func (h *H) NumVertices() int { return len(h.Vertices) }

// NumEdges returns the hyperedge count.
func (h *H) NumEdges() int { return len(h.Edges) }

// Weight returns vertex v's weight, as Dyn.Weight does for a contracted view.
func (h *H) Weight(v VertexID) int { return h.Vertices[v].Weight }

// Validate checks internal consistency; used by tests.
func (h *H) Validate() error {
	w := 0
	for vi := range h.Vertices {
		v := &h.Vertices[vi]
		if v.ID != VertexID(vi) {
			return fmt.Errorf("hypergraph: vertex %d has ID %d", vi, v.ID)
		}
		if v.Weight <= 0 {
			return fmt.Errorf("hypergraph: vertex %s has weight %d", v.Name, v.Weight)
		}
		w += v.Weight
		for _, e := range v.Edges {
			if int(e) >= len(h.Edges) {
				return fmt.Errorf("hypergraph: vertex %s references edge %d out of range", v.Name, e)
			}
			found := false
			for _, p := range h.Edges[e].Pins {
				if p == v.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("hypergraph: vertex %s lists edge %d that lacks it as a pin", v.Name, e)
			}
		}
	}
	if w != h.TotalWeight {
		return fmt.Errorf("hypergraph: total weight %d != sum of vertex weights %d", h.TotalWeight, w)
	}
	seen := make([]int32, len(h.Vertices)) // ei+1 once edge ei listed the vertex
	for ei := range h.Edges {
		e := &h.Edges[ei]
		if e.ID != EdgeID(ei) {
			return fmt.Errorf("hypergraph: edge %d has ID %d", ei, e.ID)
		}
		if len(e.Pins) < 2 {
			return fmt.Errorf("hypergraph: edge %d has %d pins", ei, len(e.Pins))
		}
		for _, p := range e.Pins {
			if p < 0 || int(p) >= len(h.Vertices) {
				return fmt.Errorf("hypergraph: edge %d pin %d out of range", ei, p)
			}
			if seen[p] == int32(ei+1) {
				return fmt.Errorf("hypergraph: edge %d has duplicate pin %d", ei, p)
			}
			seen[p] = int32(ei + 1)
		}
	}
	return nil
}
