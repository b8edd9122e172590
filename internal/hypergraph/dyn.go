package hypergraph

import "fmt"

// Dyn is a dynamic view of a hypergraph that supports contracting one
// vertex pair at a time and uncontracting in exact LIFO order — the
// memory-compact contraction stack of the n-level partitioning scheme
// (Osipov & Sanders, "n-Level Hypergraph Partitioning"). It is the only
// code in the repository that contracts a hypergraph, and it makes no
// per-level copies: a contraction mutates the incidence structure in place
// and pushes a small memento, and Uncontract restores the finer graph
// exactly.
//
// Representation invariants while vertex v is active:
//
//   - pins[e][:size[e]] are the active pins of edge e, all distinct;
//   - inc[v] lists exactly the edges that have v as an active pin
//     (edges whose active size dropped to 1 stay listed — they carry no
//     cut but must be restorable);
//   - vertex and edge weights never change (parallel edges are NOT
//     merged, which is what keeps uncontraction trivially exact).
//
// A contraction (u absorbs v) classifies each edge of v:
//
//   - case 1, u already a pin: v is swapped to pins[e][size-1] and the
//     size decremented. Later operations only touch indices < size, so a
//     LIFO uncontraction finds v exactly one slot past the end.
//   - case 2, u not a pin: v's slot is relabeled to u in place and e is
//     appended to inc[u].
//
// inc[v] is repartitioned so case-1 edges come first; the memento's edge
// lists alias that storage, so a contraction allocates nothing beyond
// amortized slice growth.
type Dyn struct {
	weight []int
	active []bool

	pins [][]VertexID // per edge; active prefix pins[e][:size[e]]
	size []int32
	ew   []int32 // edge weight, immutable

	inc [][]EdgeID // per vertex; for active v: edges with v as active pin

	stack   []Memento
	nActive int
	total   int

	scratch1, scratch2 []EdgeID // classification buffers
}

// Memento records one contraction. Case1 and Case2 alias the Dyn's
// internal incidence storage for V and stay valid until V is contracted
// again; callers must not mutate them.
type Memento struct {
	U, V  VertexID
	Case1 []EdgeID // edges that had both U and V (V's pin was removed)
	Case2 []EdgeID // edges where V's pin was relabeled to U
}

// NewDyn builds the dynamic view of h. h itself is not modified (pin and
// incidence lists are copied; weights are read once).
//
// All incidence lists share one backing array and all pin lists another.
// Each list is cut out with a three-index slice, so its capacity ends
// where the next list begins: Contract's append to inc[u] then reallocates
// that one list instead of overwriting its neighbour.
func NewDyn(h *H) *Dyn {
	d := &Dyn{
		weight:  make([]int, len(h.Vertices)),
		active:  make([]bool, len(h.Vertices)),
		pins:    make([][]VertexID, len(h.Edges)),
		size:    make([]int32, len(h.Edges)),
		ew:      make([]int32, len(h.Edges)),
		inc:     make([][]EdgeID, len(h.Vertices)),
		nActive: len(h.Vertices),
		total:   h.TotalWeight,
	}
	nInc, nPins := 0, 0
	for vi := range h.Vertices {
		nInc += len(h.Vertices[vi].Edges)
	}
	for ei := range h.Edges {
		nPins += len(h.Edges[ei].Pins)
	}
	incBuf := make([]EdgeID, 0, nInc)
	pinBuf := make([]VertexID, 0, nPins)
	for vi := range h.Vertices {
		d.weight[vi] = h.Vertices[vi].Weight
		d.active[vi] = true
		lo := len(incBuf)
		incBuf = append(incBuf, h.Vertices[vi].Edges...)
		d.inc[vi] = incBuf[lo:len(incBuf):len(incBuf)]
	}
	for ei := range h.Edges {
		lo := len(pinBuf)
		pinBuf = append(pinBuf, h.Edges[ei].Pins...)
		d.pins[ei] = pinBuf[lo:len(pinBuf):len(pinBuf)]
		d.size[ei] = int32(len(d.pins[ei]))
		d.ew[ei] = int32(h.Edges[ei].Weight)
	}
	return d
}

// NumVertices returns the total (finest-level) vertex count.
func (d *Dyn) NumVertices() int { return len(d.weight) }

// NumEdges returns the edge count (constant across contractions).
func (d *Dyn) NumEdges() int { return len(d.pins) }

// NumActive returns the current number of active vertices.
func (d *Dyn) NumActive() int { return d.nActive }

// Depth returns the contraction-stack height.
func (d *Dyn) Depth() int { return len(d.stack) }

// TotalWeight returns the (invariant) total vertex weight.
func (d *Dyn) TotalWeight() int { return d.total }

// Active reports whether v is currently an active (uncontracted) vertex.
func (d *Dyn) Active(v VertexID) bool { return d.active[v] }

// Weight returns v's current weight (its own plus everything contracted
// into it).
func (d *Dyn) Weight(v VertexID) int { return d.weight[v] }

// EdgeWeight returns e's (immutable) weight.
func (d *Dyn) EdgeWeight(e EdgeID) int { return int(d.ew[e]) }

// EdgeSize returns the current number of active pins of e. Edges of size
// < 2 carry no cut at the current level.
func (d *Dyn) EdgeSize(e EdgeID) int { return int(d.size[e]) }

// Pins returns the active pins of e. The slice aliases internal storage:
// do not mutate, and do not hold across Contract/Uncontract.
func (d *Dyn) Pins(e EdgeID) []VertexID { return d.pins[e][:d.size[e]] }

// Incident returns the edges that have v as an active pin (v must be
// active). The slice aliases internal storage: do not mutate, and do not
// hold across Contract/Uncontract.
func (d *Dyn) Incident(v VertexID) []EdgeID { return d.inc[v] }

// Contract makes u absorb v: u's weight grows by v's, v becomes inactive,
// and every edge of v either loses the pin (u already present) or has it
// relabeled to u. Both vertices must be active and distinct.
func (d *Dyn) Contract(u, v VertexID) {
	if u == v || !d.active[u] || !d.active[v] {
		panic(fmt.Sprintf("hypergraph: Contract(%d, %d) on inactive or equal vertices", u, v))
	}
	m := Memento{U: u, V: v}
	case1 := d.scratch1[:0]
	case2 := d.scratch2[:0]
	for _, e := range d.inc[v] {
		pins := d.pins[e][:d.size[e]]
		posV, hasU := -1, false
		for i, p := range pins {
			if p == v {
				posV = i
			} else if p == u {
				hasU = true
			}
		}
		if posV < 0 {
			panic(fmt.Sprintf("hypergraph: edge %d in inc[%d] lacks the pin", e, v))
		}
		if hasU {
			last := d.size[e] - 1
			pins[posV] = pins[last]
			pins[last] = v
			d.size[e] = last
			case1 = append(case1, e)
		} else {
			pins[posV] = u
			d.inc[u] = append(d.inc[u], e)
			case2 = append(case2, e)
		}
	}
	// Repartition inc[v] so case-1 edges come first; the memento's slices
	// alias this arrangement.
	iv := d.inc[v][:0]
	iv = append(iv, case1...)
	iv = append(iv, case2...)
	d.inc[v] = iv
	d.scratch1, d.scratch2 = case1[:0], case2[:0]
	m.Case1 = iv[:len(case1)]
	m.Case2 = iv[len(case1):]

	d.weight[u] += d.weight[v]
	d.active[v] = false
	d.nActive--
	d.stack = append(d.stack, m)
}

// Uncontract pops the most recent contraction, restoring v as an active
// vertex next to u, and returns its memento. Panics on an empty stack.
func (d *Dyn) Uncontract() Memento {
	if len(d.stack) == 0 {
		panic("hypergraph: Uncontract on empty stack")
	}
	m := d.stack[len(d.stack)-1]
	d.stack = d.stack[:len(d.stack)-1]
	u, v := m.U, m.V
	for _, e := range m.Case1 {
		// v sits exactly one slot past the active end (LIFO).
		if d.pins[e][d.size[e]] != v {
			panic(fmt.Sprintf("hypergraph: edge %d slot %d holds %d, want %d",
				e, d.size[e], d.pins[e][d.size[e]], v))
		}
		d.size[e]++
	}
	for _, e := range m.Case2 {
		pins := d.pins[e][:d.size[e]]
		for i, p := range pins {
			if p == u {
				pins[i] = v
				break
			}
		}
	}
	// Remove the case-2 edges that Contract appended to inc[u]. A later
	// contraction absorbing u may have repartitioned inc[u] in place, so
	// the appended edges are no longer a suffix — remove by value (each
	// appears exactly once; scanning from the end finds untouched appends
	// immediately).
	iu := d.inc[u]
	for _, e := range m.Case2 {
		for i := len(iu) - 1; i >= 0; i-- {
			if iu[i] == e {
				iu[i] = iu[len(iu)-1]
				iu = iu[:len(iu)-1]
				break
			}
		}
	}
	d.inc[u] = iu
	d.weight[u] -= d.weight[v]
	d.active[v] = true
	d.nActive++
	return m
}

// ActiveVertices appends all active vertex IDs to buf in increasing order
// and returns it.
func (d *Dyn) ActiveVertices(buf []VertexID) []VertexID {
	buf = buf[:0]
	for v := range d.active {
		if d.active[v] {
			buf = append(buf, VertexID(v))
		}
	}
	return buf
}

// CutSize returns the number of edges whose active pins span more than
// one block under parts (indexed by finest-level VertexID; only active
// pins are consulted). Weighted variants sum edge weights.
func (d *Dyn) CutSize(parts []int32) int {
	cut := 0
	for e := range d.pins {
		if d.spansCut(EdgeID(e), parts) {
			cut++
		}
	}
	return cut
}

// WeightedCut returns the total weight of cut edges under parts.
func (d *Dyn) WeightedCut(parts []int32) int {
	cut := 0
	for e := range d.pins {
		if d.spansCut(EdgeID(e), parts) {
			cut += int(d.ew[e])
		}
	}
	return cut
}

func (d *Dyn) spansCut(e EdgeID, parts []int32) bool {
	pins := d.pins[e][:d.size[e]]
	if len(pins) < 2 {
		return false
	}
	first := parts[pins[0]]
	for _, p := range pins[1:] {
		if parts[p] != first {
			return true
		}
	}
	return false
}

// Loads returns the per-block active vertex weight under parts.
func (d *Dyn) Loads(parts []int32, k int) []int {
	loads := make([]int, k)
	for v := range d.active {
		if d.active[v] {
			loads[parts[v]] += d.weight[v]
		}
	}
	return loads
}

// Validate checks the representation invariants; used by tests.
func (d *Dyn) Validate() error {
	w := 0
	for v := range d.active {
		if !d.active[v] {
			continue
		}
		w += d.weight[v]
		for _, e := range d.inc[v] {
			found := false
			for _, p := range d.pins[e][:d.size[e]] {
				if p == VertexID(v) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("dyn: inc[%d] lists edge %d without the pin", v, e)
			}
		}
	}
	if w != d.total {
		return fmt.Errorf("dyn: active weight %d != total %d", w, d.total)
	}
	for e := range d.pins {
		seen := map[VertexID]bool{}
		for _, p := range d.pins[e][:d.size[e]] {
			if !d.active[p] {
				return fmt.Errorf("dyn: edge %d has inactive pin %d", e, p)
			}
			if seen[p] {
				return fmt.Errorf("dyn: edge %d has duplicate pin %d", e, p)
			}
			seen[p] = true
		}
	}
	return nil
}
