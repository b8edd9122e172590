package netlist

// ConeWalker walks fan-in cones of one netlist. It is built once and
// reused for every root: a walk costs the nets and gates it reaches, not
// the size of the netlist. Not safe for concurrent use.
//
// Cone partitioning (Saucier, Brasen & Hiol 1993) assigns each output cone
// to a partition; stopping at DFFs keeps cones combinational, which is how
// the paper's initial partitioner limits cone size on sequential designs.
type ConeWalker struct {
	nl *Netlist
	// seen[net] == stamp marks the nets the current walk has reached. One
	// stamp per net is enough: a gate is reached only through the one net
	// it drives, so no gate is listed twice.
	seen  []uint32
	stamp uint32
	stack []NetID
	cone  []GateID
}

// NewConeWalker returns a walker over n.
func NewConeWalker(n *Netlist) *ConeWalker {
	return &ConeWalker{nl: n, seen: make([]uint32, len(n.Nets))}
}

// FanIn returns the gates in the transitive fan-in of net root, each once,
// stopping at primary inputs, constants and (optionally) DFF boundaries: a
// DFF reached by the walk is listed, its inputs are not followed. The
// slice is valid until the next call.
func (w *ConeWalker) FanIn(root NetID, stopAtDFF bool) []GateID {
	w.stamp++
	if w.stamp == 0 { // wrapped: a stale mark could read as this walk's
		clear(w.seen)
		w.stamp = 1
	}
	nl := w.nl
	w.cone = w.cone[:0]
	w.seen[root] = w.stamp
	w.stack = append(w.stack[:0], root)
	for len(w.stack) > 0 {
		net := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		d := nl.Nets[net].Driver
		if d == NoGate {
			continue
		}
		w.cone = append(w.cone, d)
		if stopAtDFF && nl.Gates[d].Kind.Sequential() {
			continue
		}
		for _, in := range nl.Gates[d].Inputs {
			if w.seen[in] != w.stamp {
				w.seen[in] = w.stamp
				w.stack = append(w.stack, in)
			}
		}
	}
	return w.cone
}

// FanInCone returns the fan-in cone of net root (see ConeWalker.FanIn) as
// a gate set encoded as a []bool indexed by GateID.
func (n *Netlist) FanInCone(root NetID, stopAtDFF bool) []bool {
	inCone := make([]bool, len(n.Gates))
	for _, g := range NewConeWalker(n).FanIn(root, stopAtDFF) {
		inCone[g] = true
	}
	return inCone
}
