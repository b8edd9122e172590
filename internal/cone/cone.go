// Package cone implements cone partitioning (Saucier, Brasen & Hiol,
// ICCAD 1993), which the paper uses to generate the initial k-way
// partition. Cone partitioning emphasizes the concurrency present in the
// design: the fan-in cone of each circuit output is a unit of computation
// that can proceed independently, so packing whole cones into partitions
// keeps concurrent work spread across processors while preserving
// locality.
package cone

import (
	"sort"

	"repro/internal/elab"
	"repro/internal/hypergraph"
	"repro/internal/netlist"
)

// VertexGraph is the directed connectivity between hypergraph vertices:
// for every non-clock, non-constant net, an arc from the driver's vertex
// to each sink's vertex. It is derived from the flat netlist, so it works
// for any visibility level (super-gates included).
type VertexGraph struct {
	H *hypergraph.H
	// Succ and Pred are adjacency lists by VertexID (deduplicated).
	Succ, Pred [][]hypergraph.VertexID
	// Roots are the vertices driving primary outputs.
	Roots []hypergraph.VertexID
}

// BuildVertexGraph derives the directed vertex graph for view h of design d.
func BuildVertexGraph(d *elab.Design, h *hypergraph.H) *VertexGraph {
	nv := h.NumVertices()
	g := &VertexGraph{
		H:    h,
		Succ: make([][]hypergraph.VertexID, nv),
		Pred: make([][]hypergraph.VertexID, nv),
	}
	nl := d.Netlist
	// Dedup sinks within each net with a stamp per (vertex, net) pass.
	// Repeated arcs across different nets are harmless for BFS.
	sinkStamp := make([]int, nv)
	for i := range sinkStamp {
		sinkStamp[i] = -1
	}
	rootStamp := make([]bool, nv)
	addRoot := func(v hypergraph.VertexID) {
		if !rootStamp[v] {
			rootStamp[v] = true
			g.Roots = append(g.Roots, v)
		}
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if net.Const >= 0 || net.Driver == netlist.NoGate {
			continue
		}
		if nl.IsClockNet(netlist.NetID(ni)) {
			continue
		}
		dv := h.GateVertex[net.Driver]
		if net.IsPO {
			addRoot(dv)
		}
		// DFF data inputs are pseudo primary outputs: each register's
		// combinational support is an independent cone (the standard
		// treatment for sequential circuits).
		for _, s := range net.Sinks {
			if nl.Gates[s].Kind.Sequential() && len(nl.Gates[s].Inputs) > 0 &&
				nl.Gates[s].Inputs[0] == netlist.NetID(ni) {
				addRoot(dv)
				break
			}
		}
		for _, s := range net.Sinks {
			sv := h.GateVertex[s]
			if sv == dv {
				continue
			}
			if sinkStamp[sv] != ni {
				sinkStamp[sv] = ni
				g.Succ[dv] = append(g.Succ[dv], sv)
				g.Pred[sv] = append(g.Pred[sv], dv)
			}
		}
	}
	if len(g.Roots) == 0 {
		// Degenerate circuit with no gate-driven POs: use sinks with no
		// successors as roots.
		for v := 0; v < nv; v++ {
			if len(g.Succ[v]) == 0 {
				g.Roots = append(g.Roots, hypergraph.VertexID(v))
			}
		}
	}
	return g
}

// Partition produces an initial k-way assignment by cone packing:
//
//  1. compute the combinational fan-in cone of every primary output and
//     every DFF data input over the FLAT netlist (cones stop at DFF
//     boundaries, so sequential feedback does not collapse the circuit
//     into one cone), then lift each gate cone to the hypergraph vertices
//     (super-gates included) that contain its gates;
//  2. visit cones largest-first; each cone's still-unassigned vertices go
//     to the currently least-loaded partition (whole-cone placement keeps
//     an output's support together — the concurrency-preserving property);
//  3. any remaining vertices are swept into the least-loaded partition by
//     BFS clusters capped at one partition's worth of weight.
//
// The result is complete but NOT balance-feasible in general; the
// iterative phase of the multiway algorithm repairs balance.
func Partition(d *elab.Design, h *hypergraph.H, k int) *hypergraph.Assignment {
	g := BuildVertexGraph(d, h)
	a := hypergraph.NewAssignment(h, k)
	loads := make([]int, k)
	nl := d.Netlist

	type coneInfo struct {
		root   netlist.NetID
		verts  []hypergraph.VertexID
		weight int
	}
	// Roots in a fixed order: the primary outputs, then every flip-flop's
	// d pin (a pseudo primary output).
	roots := append([]netlist.NetID(nil), nl.POs...)
	for gi := range nl.Gates {
		if g := &nl.Gates[gi]; g.Kind.Sequential() && len(g.Inputs) > 0 {
			roots = append(roots, g.Inputs[0])
		}
	}
	walker := netlist.NewConeWalker(nl)
	cones := make([]coneInfo, 0, len(roots))
	stamp := make([]int, h.NumVertices())
	for i := range stamp {
		stamp[i] = -1
	}
	for ci, root := range roots {
		var verts []hypergraph.VertexID
		w := 0
		for _, gid := range walker.FanIn(root, true) {
			v := h.GateVertex[gid]
			if stamp[v] != ci {
				stamp[v] = ci
				verts = append(verts, v)
				w += h.Vertices[v].Weight
			}
		}
		// The cone root's driving DFF (if the root is a register output)
		// is not in the combinational cone; its vertex usually already
		// appears via the super-gate, so no special handling is needed.
		if len(verts) > 0 {
			cones = append(cones, coneInfo{root: root, verts: verts, weight: w})
		}
	}
	sort.Slice(cones, func(i, j int) bool {
		if cones[i].weight != cones[j].weight {
			return cones[i].weight > cones[j].weight
		}
		return cones[i].root < cones[j].root // deterministic tie-break
	})

	leastLoaded := func() int32 {
		best := 0
		for p := 1; p < k; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		return int32(best)
	}

	for _, c := range cones {
		p := leastLoaded()
		for _, v := range c.verts {
			if a.Parts[v] < 0 {
				a.Parts[v] = p
				loads[p] += h.Vertices[v].Weight
			}
		}
	}

	// Sweep leftovers: cluster by BFS from each unassigned vertex so
	// connected leftover logic stays together — but cap each cluster at
	// the target partition size so one component cannot swallow a
	// partition's worth of slack.
	clusterCap := (h.TotalWeight + k - 1) / k
	for vi := range h.Vertices {
		if a.Parts[vi] >= 0 {
			continue
		}
		p := leastLoaded()
		grown := 0
		stack := []hypergraph.VertexID{hypergraph.VertexID(vi)}
		for len(stack) > 0 && grown < clusterCap {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if a.Parts[v] >= 0 {
				continue
			}
			a.Parts[v] = p
			loads[p] += h.Vertices[v].Weight
			grown += h.Vertices[v].Weight
			for _, n := range g.Pred[v] {
				if a.Parts[n] < 0 {
					stack = append(stack, n)
				}
			}
			for _, n := range g.Succ[v] {
				if a.Parts[n] < 0 {
					stack = append(stack, n)
				}
			}
		}
	}
	return a
}
