// Package elab elaborates a parsed Verilog design into (a) a flattened
// gate-level netlist and (b) the design hierarchy (the instance tree), which
// the design-driven partitioner exploits and flattened-netlist algorithms
// ignore.
//
// Elaboration costs what it returns (DESIGN §30). Every module reached is
// compiled once into a layout — its gates and port connections with their
// pins as offsets into an instance's block of signal slots, and its
// subtree's totals, which size every output array (or refuse the design)
// before the instance tree is walked. An instance is then a base offset,
// its port connections unions of two offsets; a union's representative (a
// constant, else its lowest slot) becomes a netlist.Net, and only
// representatives are given a name.
package elab

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

// Instance is one node of the design hierarchy.
type Instance struct {
	ID       int32 // index into Design.Instances; 0 is the top instance
	Module   *verilog.Module
	Name     string // instance name ("top" for the root)
	Path     string // full hierarchical path, e.g. "top.dp.fa0"
	Parent   *Instance
	Children []*Instance
	// Gates directly inside this instance (not in children).
	Gates []netlist.GateID
	// SubtreeGates counts all gates in this instance and its descendants —
	// the "number of gates" vertex weight of the paper's hypergraph.
	SubtreeGates int
	// Depth is 0 for the top instance.
	Depth int
}

// Design is the elaborated design: hierarchy plus flat netlist.
type Design struct {
	Top       *Instance
	Instances []*Instance // pre-order; Instances[0] == Top
	Netlist   *netlist.Netlist
}

// Instance returns the instance with the given hierarchical path, or nil.
func (d *Design) Instance(path string) *Instance {
	for _, inst := range d.Instances {
		if inst.Path == path {
			return inst
		}
	}
	return nil
}

// maxDepthDefault bounds hierarchy recursion to catch recursive
// instantiation in malformed inputs.
const maxDepthDefault = 64

// maxSignalBits bounds what a design may ask for — signal bits, gates, gate
// pins, instances — and is checked on widths computed from declarations and
// literals before a bit is materialised: a worker elaborates source it got
// over TCP. 72 times the 1.87 M bits of the 728 k-gate decoder.
const maxSignalBits = 1 << 27

// slot is a single-bit signal endpoint before union-find resolution. An
// instance's own bits — declared nets in order, MSB first, then its operator
// gates' outputs — precede its children's blocks: slots ascend in pre-order.
type slot = int32

const (
	const0  slot = 0
	const1  slot = 1
	topBase slot = 2
)

// layout is one module compiled for one Elaborate call. Slots in it are
// relative to an instance's block (see rel); -1 and -2 are const0 and const1.
type layout struct {
	mod   *verilog.Module
	net   map[string]int32 // net name → index into mod.Nets
	off   []int32          // off[i]: mod.Nets[i]'s first (MSB) bit
	bits  int32            // declared bits; operator outputs follow them
	ops   int32            // operator gates the module's assigns synthesize
	gates []lgate          // direct gates, in GateID order
	pins  []int32          // their inputs, gate after gate
	kids  []*layout        // kids[k]: the module of mod.Instances[k]
	conns []int32          // port connections: (slot here, slot in the child's block) pairs
	wired []int32          // wired[k]: mod.Instances[k]'s connections end at conns[wired[k]]

	height                        int   // levels of hierarchy below the module
	nSlots, nGates, nPins, nInsts int64 // subtree totals, the module's own included
}

type lgate struct {
	kind   verilog.GateKind
	out    int32
	pinEnd int32  // inputs are pins[previous gate's pinEnd : pinEnd]
	suffix string // what follows the instance path; "" for an operator gate, numbered per design
}

// rel resolves a layout slot against an instance's base.
func rel(base slot, r int32) slot {
	if r < 0 {
		return -1 - r
	}
	return base + r
}

// elaborator carries the state of one elaboration run.
type elaborator struct {
	design  *verilog.Design
	layouts map[*verilog.Module]*layout
	path    []string // instance names from the top to the module being compiled, for messages
	out     []int32  // the slots expr emits

	uf        []slot // union-find parent array over slots
	nl        *netlist.Netlist
	pins      []netlist.NetID  // every Gate.Inputs is a view of this; slots until finish renumbers them
	ids       []netlist.GateID // ids[i] == i: every Instance.Gates is a view of this
	instances []*Instance
	children  []*Instance // every Instance.Children is a view of this
	names     names

	// Cursors of the instance walk.
	nextSlot                                       slot
	nextGate, nextPin, nextOp, nextInst, nextChild int
}

// Elaborate builds the hierarchy and flat netlist for module `top` of the
// design.
func Elaborate(d *verilog.Design, top string) (*Design, error) {
	topMod := d.Module(top)
	if topMod == nil {
		return nil, fmt.Errorf("elab: top module %q not found", top)
	}
	for _, p := range topMod.Ports {
		if p.Dir == verilog.DirInout {
			return nil, fmt.Errorf("elab: inout port %s.%s not supported at top level", top, p.Name)
		}
	}
	e := &elaborator{design: d, layouts: make(map[*verilog.Module]*layout), path: []string{top},
		nextSlot: topBase, nextInst: 1}
	l, err := e.compile(topMod, 0)
	if err != nil {
		return nil, err
	}

	e.uf = make([]slot, int64(topBase)+l.nSlots)
	for i := range e.uf {
		e.uf[i] = slot(i)
	}
	e.nl = &netlist.Netlist{Gates: make([]netlist.Gate, l.nGates)}
	e.pins = make([]netlist.NetID, l.nPins)
	e.ids = make([]netlist.GateID, l.nGates)
	for i := range e.ids {
		e.ids[i] = netlist.GateID(i)
	}
	slab := make([]Instance, l.nInsts)
	e.instances = make([]*Instance, l.nInsts)
	for i := range slab {
		e.instances[i] = &slab[i]
	}
	e.children = make([]*Instance, l.nInsts-1)
	*e.instances[0] = Instance{Module: topMod, Name: top, Path: top}
	e.instantiate(l, e.instances[0])
	return e.finish(l)
}

// names cuts the paths and net names a design keeps from shared chunks: a
// strings.Builder never rewrites a byte it has handed out, so a name is the
// tail of its chunk as it stood when the name was complete.
type names struct{ b strings.Builder }

func (a *names) cut(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if a.b.Cap()-a.b.Len() < n {
		a.b = strings.Builder{}
		a.b.Grow(max(n, 1<<16))
	}
	start := a.b.Len()
	for _, p := range parts {
		a.b.WriteString(p)
	}
	return a.b.String()[start:]
}

// find returns the union-find representative with path compression.
func (e *elaborator) find(s slot) slot {
	for e.uf[s] != s {
		e.uf[s] = e.uf[e.uf[s]]
		s = e.uf[s]
	}
	return s
}

// union merges two slots. Constant slots win representative status so a net
// tied to a constant keeps its constant identity; otherwise the first
// (lower-numbered, i.e. outermost) slot wins, keeping shallow names.
func (e *elaborator) union(a, b slot) {
	ra, rb := e.find(a), e.find(b)
	// Prefer constants (the two lowest slots; the second named of two wins),
	// then lower slot numbers, as representatives.
	if rb <= const1 || rb < ra {
		ra, rb = rb, ra
	}
	e.uf[rb] = ra
}

// where is the path of the first instance, in pre-order, of the module
// being compiled: where a walk of every instance would meet its mistakes.
func (e *elaborator) where() string { return strings.Join(e.path, ".") }

// plus adds two non-negative sizes, saturating.
func plus(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// limits refuses a design one of whose totals passed maxSignalBits.
func (e *elaborator) limits(l *layout) error {
	for i, n := range [...]int64{l.nSlots, l.nGates, l.nPins, l.nInsts} {
		if n > maxSignalBits {
			return fmt.Errorf("elab: %s: needs %d %s, limit %d", e.where(), n,
				[...]string{"signal bits", "gates", "gate pins", "instances"}[i], maxSignalBits)
		}
	}
	return nil
}

// compile lays module m out, once per run; depth is that of the instance
// that reached it. Every mistake a module's text can hold is reported here.
func (e *elaborator) compile(m *verilog.Module, depth int) (*layout, error) {
	// Memoised on success only: a recursive instantiation never finds itself
	// finished and descends to the depth bound.
	if l := e.layouts[m]; l != nil && depth+l.height <= maxDepthDefault {
		return l, nil
	} else if l != nil || depth > maxDepthDefault {
		return nil, fmt.Errorf("elab: %s: hierarchy deeper than %d levels (recursive instantiation?)",
			e.where(), maxDepthDefault)
	}
	l := &layout{mod: m, net: make(map[string]int32, len(m.Nets)), off: make([]int32, len(m.Nets)), nInsts: 1}
	for i, n := range m.Nets {
		l.net[n.Name] = int32(i)
		l.off[i] = int32(l.nSlots)
		l.nSlots = plus(l.nSlots, int64(n.Range.Width()))
		if err := e.limits(l); err != nil {
			return nil, err
		}
	}
	l.bits = int32(l.nSlots)

	// Gate primitives.
	for _, g := range m.Gates {
		if g.Kind == verilog.GateDff {
			if len(g.Conns) != 3 {
				return nil, fmt.Errorf("elab: %s.%s: dff needs (q, d, clk), got %d connections",
					e.where(), g.Name, len(g.Conns))
			}
		} else if g.Kind == verilog.GateNot || g.Kind == verilog.GateBuf {
			if len(g.Conns) != 2 {
				return nil, fmt.Errorf("elab: %s.%s: %s needs exactly (out, in)", e.where(), g.Name, g.Kind)
			}
		}
		e.out = e.out[:0]
		what := "gate output"
		for _, c := range g.Conns {
			w, err := e.plain(l, c, 1)
			if err == nil && w != 1 {
				err = fmt.Errorf("elab: %s: %s connection %s is %d bits wide, want 1", e.where(), what, c, w)
			}
			if err != nil {
				return nil, err
			}
			e.expr(l, c, 1, true)
			what = "gate input"
		}
		l.pins = append(l.pins, e.out[1:]...)
		l.gates = append(l.gates, lgate{kind: g.Kind, out: e.out[0], pinEnd: int32(len(l.pins)), suffix: "." + g.Name})
	}

	// Continuous assignments: operator gates, then per-bit buffers.
	for _, a := range m.Assigns {
		w, err := e.plain(l, a.LHS, -1)
		if err != nil {
			return nil, err
		}
		rw, ops, err := e.expr(l, a.RHS, w, false)
		if err != nil {
			return nil, err
		}
		if w != rw {
			return nil, fmt.Errorf("elab: %s: assign width mismatch: %s (%d bits) = %s (%d bits)",
				e.where(), a.LHS, w, a.RHS, rw)
		}
		l.nSlots, l.nGates = plus(l.nSlots, ops), plus(int64(len(l.gates)), plus(w, ops))
		if err := e.limits(l); err != nil {
			return nil, err
		}
		e.out = e.out[:0]
		e.expr(l, a.LHS, -1, true)
		e.expr(l, a.RHS, w, true)
		for i, lhs := range e.out[:w] {
			l.pins = append(l.pins, e.out[int(w)+i])
			l.gates = append(l.gates, lgate{kind: verilog.GateBuf, out: lhs, pinEnd: int32(len(l.pins)),
				suffix: fmt.Sprintf("._assign%d_%d", a.Line, i)})
		}
	}
	l.nGates, l.nPins = int64(len(l.gates)), int64(len(l.pins))

	// Child module instances: the child's layout, then its ports' wiring.
	for _, mi := range m.Instances {
		childMod := e.design.Module(mi.ModuleName)
		if childMod == nil {
			return nil, fmt.Errorf("elab: %s: unknown module %q instantiated as %q",
				e.where(), mi.ModuleName, mi.Name)
		}
		e.path = append(e.path, mi.Name)
		cl, err := e.compile(childMod, depth+1)
		if err != nil {
			return nil, err
		}
		e.path = e.path[:len(e.path)-1]
		l.height = max(l.height, cl.height+1)
		l.nSlots, l.nGates = plus(l.nSlots, cl.nSlots), plus(l.nGates, cl.nGates)
		l.nPins, l.nInsts = plus(l.nPins, cl.nPins), plus(l.nInsts, cl.nInsts)
		if err := e.limits(l); err != nil {
			return nil, err
		}

		// Positional connections are the ports' names in header order.
		conns := mi.Named
		if mi.Positional != nil {
			if len(mi.Positional) != len(childMod.Ports) {
				return nil, fmt.Errorf("elab: %s: %s has %d connections, module %s has %d ports",
					e.where(), mi.Name, len(mi.Positional), childMod.Name, len(childMod.Ports))
			}
			conns = make([]verilog.NamedConn, len(mi.Positional))
			for i, expr := range mi.Positional {
				conns[i] = verilog.NamedConn{Port: childMod.Ports[i].Name, Expr: expr}
			}
		}
		seen := make(map[string]bool, len(conns))
		for _, nc := range conns {
			port := childMod.Port(nc.Port)
			if port == nil {
				return nil, fmt.Errorf("elab: %s: %s: module %s has no port %q",
					e.where(), mi.Name, childMod.Name, nc.Port)
			}
			if seen[nc.Port] {
				return nil, fmt.Errorf("elab: %s: %s: port %q connected twice", e.where(), mi.Name, nc.Port)
			}
			seen[nc.Port] = true
			if nc.Expr == nil {
				continue // explicitly unconnected
			}
			// The expression's bits pair with the first bits of the port's net.
			want := int64(port.Range.Width())
			w, err := e.plain(l, nc.Expr, want)
			if err == nil && w != want {
				err = fmt.Errorf("elab: %s: connection %s to port %s.%s.%s is %d bits, want %d",
					e.where(), nc.Expr, e.where(), mi.Name, port.Name, w, want)
			}
			ni, ok := cl.net[port.Name]
			if err == nil && (!ok || want > int64(childMod.Nets[ni].Range.Width())) {
				err = fmt.Errorf("elab: %s: port %s.%s is wider than its net", e.where(), mi.Name, port.Name)
			}
			if err != nil {
				return nil, err
			}
			e.out = e.out[:0]
			e.expr(l, nc.Expr, want, true)
			for b, s := range e.out {
				l.conns = append(l.conns, s, cl.off[ni]+int32(b))
			}
		}
		l.kids, l.wired = append(l.kids, cl), append(l.wired, int32(len(l.conns)))
	}
	e.layouts[m] = l
	return l, nil
}

// plain measures where the grammar allows no operator: a gate pin, a port
// connection, an assign's left-hand side.
func (e *elaborator) plain(l *layout, x verilog.Expr, ctx int64) (int64, error) {
	w, ops, err := e.expr(l, x, ctx, false)
	if err == nil && ops != 0 {
		err = fmt.Errorf("elab: %s: operator in %s outside an assign's right-hand side", e.where(), x)
	}
	return w, err
}

// expr checks a structural expression against the module's declarations
// and measures it: its width and the operator gates it synthesizes, by
// arithmetic on declared ranges and literal sizes, so a hostile width costs
// nothing before the caller refuses it. ctx is the width an unsized constant
// takes (-1: unknown). With emit, on an expression measured and accepted,
// it also appends the bits' slots to e.out, MSB first, and the operator
// gates to l.gates: one per bit, taking its operands' place in e.out.
func (e *elaborator) expr(l *layout, expr verilog.Expr, ctx int64, emit bool) (w, ops int64, err error) {
	name, whole, msb, lsb := "", false, 0, 0
	switch x := expr.(type) {
	case *verilog.Ref:
		name, whole = x.Name, true
	case *verilog.BitSelect:
		name, msb, lsb = x.Name, x.Bit, x.Bit
	case *verilog.PartSelect:
		name, msb, lsb = x.Name, x.MSB, x.LSB

	case *verilog.Concat:
		for _, p := range x.Parts {
			pw, pops, err := e.expr(l, p, -1, emit)
			if err != nil {
				return 0, 0, err
			}
			w, ops = plus(w, pw), plus(ops, pops)
		}
		return w, ops, nil

	case *verilog.Unary:
		from := len(e.out)
		w, ops, err = e.expr(l, x.X, ctx, emit)
		if emit {
			for i := from; i < len(e.out); i++ {
				e.out[i] = l.op(verilog.GateNot, e.out[i:i+1])
			}
		}
		return w, plus(ops, w), err

	case *verilog.Binary:
		kind, ok := binaryGates[x.Op]
		if !ok {
			return 0, 0, fmt.Errorf("elab: %s: unsupported operator %q", e.where(), string(x.Op))
		}
		from := len(e.out)
		w, ops, err = e.expr(l, x.X, ctx, emit)
		if err != nil {
			return 0, 0, err
		}
		yw, yops, err := e.expr(l, x.Y, w, emit)
		if err != nil {
			return 0, 0, err
		}
		if w != yw {
			return 0, 0, fmt.Errorf("elab: %s: operand width mismatch in %s (%d vs %d bits)",
				e.where(), expr, w, yw)
		}
		if emit {
			mid := from + int(w)
			for i := from; i < mid; i++ {
				e.out[i] = l.op(kind, []int32{e.out[i], e.out[i+int(w)]})
			}
			e.out = e.out[:mid]
		}
		return w, plus(plus(ops, yops), w), nil

	case *verilog.Const:
		if w = int64(x.Width); w < 0 {
			w = ctx
		}
		if w <= 0 {
			return 0, 0, fmt.Errorf("elab: %s: unsized constant %s in a context with unknown width",
				e.where(), x.Text)
		}
		for i := w - 1; emit && i >= 0; i-- {
			e.out = append(e.out, -1-int32(x.Value>>uint(i)&1))
		}
		return w, 0, nil

	default:
		return 0, 0, fmt.Errorf("elab: %s: unsupported expression %T", e.where(), expr)
	}

	// Bits hi..lo of a declared net, counted from its MSB end.
	i, ok := l.net[name]
	if !ok {
		return 0, 0, fmt.Errorf("elab: %s: unknown net %q", e.where(), name)
	}
	r := l.mod.Nets[i].Range
	hi, lo := int32(0), int32(int64(r.Width())-1)
	if !whole {
		for _, bit := range [...]int{msb, lsb} {
			if !r.Contains(bit) {
				return 0, 0, fmt.Errorf("elab: %s: %s: bit %d outside range %s", e.where(), expr, bit, r)
			}
		}
		// A bit the range contains lies |MSB - bit| from its MSB end.
		if hi, lo = int32(max(r.MSB-msb, msb-r.MSB)), int32(max(r.MSB-lsb, lsb-r.MSB)); hi > lo {
			return 0, 0, fmt.Errorf("elab: %s: part select %s is reversed", e.where(), expr)
		}
	}
	for b := hi; emit && b <= lo; b++ {
		e.out = append(e.out, l.off[i]+b)
	}
	return int64(lo-hi) + 1, 0, nil
}

var binaryGates = map[byte]verilog.GateKind{'&': verilog.GateAnd, '|': verilog.GateOr, '^': verilog.GateXor}

// op adds an operator gate and returns the slot of its fresh output.
func (l *layout) op(kind verilog.GateKind, inputs []int32) int32 {
	l.ops++
	l.pins = append(l.pins, inputs...)
	l.gates = append(l.gates, lgate{kind: kind, out: l.bits + l.ops - 1, pinEnd: int32(len(l.pins))})
	return l.bits + l.ops - 1
}

// instantiate writes instance inst of layout l, then its subtree, at the
// walk's cursors.
func (e *elaborator) instantiate(l *layout, inst *Instance) {
	base := e.nextSlot
	e.nextSlot += l.bits + l.ops

	var digits [20]byte
	first, pin := e.nextGate, int32(0)
	for j := range l.gates {
		lg := &l.gates[j]
		g := &e.nl.Gates[first+j]
		*g = netlist.Gate{ID: netlist.GateID(first + j), Kind: lg.kind, Owner: inst.ID,
			Output: netlist.NetID(rel(base, lg.out))}
		if lg.suffix == "" {
			e.nextOp++
			g.Path = e.names.cut(inst.Path, "._op", string(strconv.AppendInt(digits[:0], int64(e.nextOp), 10)))
		} else {
			g.Path = e.names.cut(inst.Path, lg.suffix)
		}
		n := int(lg.pinEnd - pin)
		g.Inputs = e.pins[e.nextPin : e.nextPin+n : e.nextPin+n]
		for k := range g.Inputs {
			g.Inputs[k] = netlist.NetID(rel(base, l.pins[int(pin)+k]))
		}
		e.nextPin, pin = e.nextPin+n, lg.pinEnd
	}
	e.nextGate += len(l.gates)
	inst.Gates = e.ids[first:e.nextGate:e.nextGate]
	inst.SubtreeGates = int(l.nGates)

	inst.Children = e.children[e.nextChild : e.nextChild+len(l.kids) : e.nextChild+len(l.kids)]
	e.nextChild += len(l.kids)
	conn := int32(0)
	for k, kl := range l.kids {
		child, name := e.instances[e.nextInst], l.mod.Instances[k].Name
		*child = Instance{ID: int32(e.nextInst), Module: kl.mod, Name: name,
			Path: e.names.cut(inst.Path, ".", name), Parent: inst, Depth: inst.Depth + 1}
		e.nextInst++
		inst.Children[k] = child
		// Wire the ports: the child's block starts at the slot cursor.
		for ; conn < l.wired[k]; conn += 2 {
			e.union(rel(base, l.conns[conn]), e.nextSlot+l.conns[conn+1])
		}
		e.instantiate(kl, child)
	}
}

// finish renumbers slots into nets, names the nets, records drivers, sinks
// and primary I/O, and validates.
func (e *elaborator) finish(top *layout) (*Design, error) {
	nl := e.nl
	// A union becomes a net when first mentioned: by the gates in GateID
	// order (output, then inputs), then the primary inputs, then the outputs.
	// netOf[r] is the NetID + 1 of the union slot r represents.
	netOf := make([]netlist.NetID, len(e.uf))
	nets := netlist.NetID(0)
	number := func(s netlist.NetID) netlist.NetID {
		r := e.find(slot(s))
		if netOf[r] == 0 {
			nets++
			netOf[r] = nets
		}
		return netOf[r] - 1
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		g.Output = number(g.Output)
		for k, in := range g.Inputs {
			g.Inputs[k] = number(in)
		}
	}
	// The top module's ports, bit-expanded MSB first: inputs, then outputs.
	for _, dir := range [...]verilog.PortDir{verilog.DirInput, verilog.DirOutput} {
		for _, p := range top.mod.Ports {
			first := netlist.NetID(topBase + top.off[top.net[p.Name]])
			for b := 0; p.Dir == dir && b < p.Range.Width(); b++ {
				if id := number(first + netlist.NetID(b)); dir == verilog.DirInput {
					nl.PIs = append(nl.PIs, id)
				} else {
					nl.POs = append(nl.POs, id)
				}
			}
		}
	}

	// Names, for the representatives alone: one sweep of the slots, instance
	// after instance — declared bits, then operator outputs, named as their
	// gates — meets every net's representative once and looks nothing up.
	nl.Nets = make([]netlist.Net, nets)
	name := func(s slot, c int8, parts ...string) {
		if id := netOf[s] - 1; id >= 0 {
			nl.Nets[id] = netlist.Net{ID: id, Name: e.names.cut(parts...), Driver: netlist.NoGate, Const: c}
		}
	}
	name(const0, 0, "const0")
	name(const1, 1, "const1")
	var digits [20]byte
	s := topBase
	for _, inst := range e.instances {
		l := e.layouts[inst.Module]
		for _, n := range l.mod.Nets {
			bit, step := n.Range.MSB, 1
			if n.Range.MSB >= n.Range.LSB {
				step = -1
			}
			for w := n.Range.Width(); w > 0; w, s, bit = w-1, s+1, bit+step {
				switch {
				case netOf[s] == 0:
				case n.Range.Scalar:
					name(s, -1, inst.Path, ".", n.Name)
				default:
					name(s, -1, inst.Path, ".", n.Name, "[", string(strconv.AppendInt(digits[:0], int64(bit), 10)), "]")
				}
			}
		}
		for j := range l.gates {
			if l.gates[j].suffix == "" {
				name(s, -1, nl.Gates[int(inst.Gates[0])+j].Path)
				s++
			}
		}
	}

	// Drivers, and sinks as one array cut by net: counted, then filled in
	// ascending gate, then pin, order, as appending gate after gate would.
	fill := make([]int32, nets+1)
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		out := &nl.Nets[g.Output]
		if out.Const >= 0 {
			return nil, fmt.Errorf("elab: gate %s drives constant net", g.Path)
		}
		if out.Driver != netlist.NoGate {
			return nil, fmt.Errorf("elab: net %s driven by both %s and %s",
				out.Name, nl.Gates[out.Driver].Path, g.Path)
		}
		out.Driver = g.ID
		for _, in := range g.Inputs {
			fill[in+1]++
		}
	}
	sinks := make([]netlist.GateID, len(e.pins))
	for i := range nl.Nets {
		fill[i+1] += fill[i]
		nl.Nets[i].Sinks = sinks[fill[i]:fill[i+1]:fill[i+1]]
	}
	for gi := range nl.Gates {
		for _, in := range nl.Gates[gi].Inputs {
			sinks[fill[in]] = netlist.GateID(gi)
			fill[in]++
		}
	}

	for _, id := range nl.PIs {
		if d := nl.Nets[id].Driver; d != netlist.NoGate {
			// A port bit of the top module is the lowest slot of its union.
			return nil, fmt.Errorf("elab: primary input %s is driven by gate %s",
				strings.TrimPrefix(nl.Nets[id].Name, top.mod.Name+"."), nl.Gates[d].Path)
		}
		nl.Nets[id].IsPI = true
	}
	for _, id := range nl.POs {
		nl.Nets[id].IsPO = true
	}
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return &Design{Top: e.instances[0], Instances: e.instances, Netlist: nl}, nil
}
