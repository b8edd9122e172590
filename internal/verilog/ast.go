package verilog

import (
	"fmt"
	"math"
	"strings"
)

// Design is a parsed source file (or concatenation of files): an ordered
// list of module definitions plus an index by name.
type Design struct {
	Modules []*Module
	byName  map[string]*Module
}

// Module looks up a module definition by name, or nil.
func (d *Design) Module(name string) *Module {
	return d.byName[name]
}

// AddModule appends m to the design. It returns an error if a module of the
// same name already exists.
func (d *Design) AddModule(m *Module) error {
	if d.byName == nil {
		d.byName = make(map[string]*Module)
	}
	if _, dup := d.byName[m.Name]; dup {
		return fmt.Errorf("verilog: duplicate module %q", m.Name)
	}
	d.byName[m.Name] = m
	d.Modules = append(d.Modules, m)
	return nil
}

// PortDir is the direction of a module port.
type PortDir int

// Port directions.
const (
	DirInput PortDir = iota
	DirOutput
	DirInout
)

func (d PortDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	case DirInout:
		return "inout"
	}
	return fmt.Sprintf("PortDir(%d)", int(d))
}

// Range is a bus range [MSB:LSB]. A scalar net has MSB == LSB == 0 and
// Scalar == true.
type Range struct {
	MSB, LSB int
	Scalar   bool
}

// Width returns the number of bits covered by the range, math.MaxInt when
// it is that or more: the bounds are any two ints a source file can spell.
func (r Range) Width() int {
	if r.Scalar {
		return 1
	}
	hi, lo := r.MSB, r.LSB
	if hi < lo {
		hi, lo = lo, hi
	}
	if d := uint(hi) - uint(lo); d < math.MaxInt {
		return int(d) + 1
	}
	return math.MaxInt
}

// Bits returns the bit indices of the range in declaration order
// (MSB first).
func (r Range) Bits() []int {
	if r.Scalar {
		return []int{0}
	}
	n := r.Width()
	bits := make([]int, n)
	step := 1
	if r.MSB >= r.LSB {
		step = -1
	}
	idx := r.MSB
	for i := 0; i < n; i++ {
		bits[i] = idx
		idx += step
	}
	return bits
}

// Contains reports whether bit index i lies within the range.
func (r Range) Contains(i int) bool {
	if r.Scalar {
		return i == 0
	}
	lo, hi := r.LSB, r.MSB
	if lo > hi {
		lo, hi = hi, lo
	}
	return i >= lo && i <= hi
}

func (r Range) String() string {
	if r.Scalar {
		return ""
	}
	return fmt.Sprintf("[%d:%d]", r.MSB, r.LSB)
}

// Port is a declared module port.
type Port struct {
	Name  string
	Dir   PortDir
	Range Range
}

// Net is a declared wire (or a port-implied net).
type Net struct {
	Name  string
	Range Range
}

// Module is a Verilog module definition.
type Module struct {
	Name      string
	Ports     []*Port // in header order
	Nets      []*Net  // declared wires; ports also get nets
	Gates     []*GateInst
	Instances []*ModuleInst
	Assigns   []*Assign
	Line      int

	portByName map[string]*Port
	netByName  map[string]*Net
}

// Port returns the named port, or nil.
func (m *Module) Port(name string) *Port { return m.portByName[name] }

// Net returns the named net, or nil.
func (m *Module) Net(name string) *Net { return m.netByName[name] }

func (m *Module) addPort(p *Port) error {
	if m.portByName == nil {
		m.portByName = make(map[string]*Port)
	}
	if _, dup := m.portByName[p.Name]; dup {
		return fmt.Errorf("verilog: module %s: duplicate port %q", m.Name, p.Name)
	}
	m.portByName[p.Name] = p
	m.Ports = append(m.Ports, p)
	return nil
}

func (m *Module) addNet(n *Net) error {
	if m.netByName == nil {
		m.netByName = make(map[string]*Net)
	}
	if old, dup := m.netByName[n.Name]; dup {
		// Redeclaring a port as a wire with the same range is legal
		// classic-style Verilog; anything else is an error.
		if old.Range == n.Range {
			return nil
		}
		return fmt.Errorf("verilog: module %s: conflicting declarations of net %q", m.Name, n.Name)
	}
	m.netByName[n.Name] = n
	m.Nets = append(m.Nets, n)
	return nil
}

// GateKind is a primitive gate function.
type GateKind int

// Primitive gate kinds.
const (
	GateAnd GateKind = iota
	GateNand
	GateOr
	GateNor
	GateXor
	GateXnor
	GateNot
	GateBuf
	// GateDff is the sequential leaf cell: connections (q, d, clk). Its
	// output changes to the sampled d value on the rising edge of clk; it
	// has no combinational Eval.
	GateDff
)

var gateKindNames = [...]string{"and", "nand", "or", "nor", "xor", "xnor", "not", "buf", "dff"}

func (k GateKind) String() string {
	if int(k) < len(gateKindNames) {
		return gateKindNames[k]
	}
	return fmt.Sprintf("GateKind(%d)", int(k))
}

// GateKindFromName maps a primitive name to its kind.
func GateKindFromName(name string) (GateKind, bool) {
	for i, n := range gateKindNames {
		if n == name {
			return GateKind(i), true
		}
	}
	return 0, false
}

// Eval computes the gate function over input bits. Not and Buf use only
// the first input.
func (k GateKind) Eval(in []bool) bool {
	switch k {
	case GateAnd, GateNand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if k == GateNand {
			return !v
		}
		return v
	case GateOr, GateNor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if k == GateNor {
			return !v
		}
		return v
	case GateXor, GateXnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if k == GateXnor {
			return !v
		}
		return v
	case GateNot:
		return !in[0]
	case GateBuf:
		return in[0]
	case GateDff:
		panic("verilog: GateDff is sequential and has no combinational Eval")
	}
	panic(fmt.Sprintf("verilog: unknown gate kind %d", int(k)))
}

// Sequential reports whether the gate kind is a sequential element.
func (k GateKind) Sequential() bool { return k == GateDff }

// GateInst is a primitive gate instantiation. Per Verilog, the first
// connection is the output; the rest are inputs (not/buf allow multiple
// outputs in real Verilog, but this subset requires exactly one output and
// one input for them).
type GateInst struct {
	Kind  GateKind
	Name  string // instance name; may be synthesized ("g123") if omitted
	Conns []Expr // Conns[0] = output, Conns[1:] = inputs
	Line  int
}

// ModuleInst is a hierarchical module instantiation.
type ModuleInst struct {
	ModuleName string
	Name       string
	// Positional connections (nil if named style was used).
	Positional []Expr
	// Named connections (nil if positional style was used).
	Named []NamedConn
	Line  int
}

// NamedConn is one .port(expr) connection.
type NamedConn struct {
	Port string
	Expr Expr // nil for an explicitly unconnected port: .p()
}

// Assign is a simple continuous assignment `assign LHS = RHS;`. Both sides
// are restricted to net references, selects, concatenations or constants of
// equal width; the elaborator expands it into per-bit buffers.
type Assign struct {
	LHS, RHS Expr
	Line     int
}

// Expr is a restricted structural expression used in port connections and
// assign statements.
type Expr interface {
	exprNode()
	String() string
}

// Ref is a whole-net reference: `a`.
type Ref struct{ Name string }

// BitSelect is a single-bit select: `a[3]`.
type BitSelect struct {
	Name string
	Bit  int
}

// PartSelect is a contiguous part select: `a[7:4]`.
type PartSelect struct {
	Name     string
	MSB, LSB int
}

// Concat is a concatenation: `{a, b[3], 1'b0}` (MSB-first order).
type Concat struct{ Parts []Expr }

// Const is a constant literal. Width -1 means unsized.
type Const struct {
	Width int
	Value uint64
	Text  string // original literal text
}

// Unary is a bitwise unary operation (`~x`), allowed in assign
// right-hand sides.
type Unary struct {
	Op byte // '~'
	X  Expr
}

// Binary is a bitwise binary operation (`a & b`, `a | b`, `a ^ b`),
// allowed in assign right-hand sides. Verilog precedence (~ then & then ^
// then |) is resolved by the parser.
type Binary struct {
	Op   byte // '&', '|', '^'
	X, Y Expr
}

func (*Ref) exprNode()        {}
func (*BitSelect) exprNode()  {}
func (*PartSelect) exprNode() {}
func (*Concat) exprNode()     {}
func (*Const) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}

func (e *Unary) String() string { return string(e.Op) + e.X.String() }
func (e *Binary) String() string {
	return "(" + e.X.String() + " " + string(e.Op) + " " + e.Y.String() + ")"
}

// EscapeIdent renders a name as a Verilog identifier, using the
// backslash-escaped form when it contains characters a simple identifier
// cannot (escaped identifiers end at whitespace, hence the trailing
// space).
func EscapeIdent(name string) string {
	simple := name != ""
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')) {
			simple = false
			break
		}
	}
	if simple && !(name[0] >= '0' && name[0] <= '9') {
		return name
	}
	return "\\" + name + " "
}

func (e *Ref) String() string       { return EscapeIdent(e.Name) }
func (e *BitSelect) String() string { return fmt.Sprintf("%s[%d]", EscapeIdent(e.Name), e.Bit) }
func (e *PartSelect) String() string {
	return fmt.Sprintf("%s[%d:%d]", EscapeIdent(e.Name), e.MSB, e.LSB)
}
func (e *Concat) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (e *Const) String() string { return e.Text }
