package elab

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netlist"
	"repro/internal/verilog"
)

const adder4Src = `
module full_adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire ab, t1, t2;
  xor x1 (ab, a, b);
  xor x2 (sum, ab, cin);
  and a1 (t1, ab, cin);
  and a2 (t2, a, b);
  or  o1 (cout, t1, t2);
endmodule

module adder4 (input [3:0] a, input [3:0] b, output [3:0] s, output cout);
  wire [2:0] c;
  full_adder fa0 (.a(a[0]), .b(b[0]), .cin(1'b0), .sum(s[0]), .cout(c[0]));
  full_adder fa1 (.a(a[1]), .b(b[1]), .cin(c[0]), .sum(s[1]), .cout(c[1]));
  full_adder fa2 (.a(a[2]), .b(b[2]), .cin(c[1]), .sum(s[2]), .cout(c[2]));
  full_adder fa3 (.a(a[3]), .b(b[3]), .cin(c[2]), .sum(s[3]), .cout(cout));
endmodule
`

func mustElab(t *testing.T, src, top string) *Design {
	t.Helper()
	d, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := Elaborate(d, top)
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

func TestElaborateAdder4(t *testing.T) {
	ed := mustElab(t, adder4Src, "adder4")
	nl := ed.Netlist

	if got := nl.NumGates(); got != 20 {
		t.Errorf("gates: got %d, want 20 (4 full adders × 5)", got)
	}
	if len(nl.PIs) != 8 {
		t.Errorf("PIs: got %d, want 8", len(nl.PIs))
	}
	if len(nl.POs) != 5 {
		t.Errorf("POs: got %d, want 5", len(nl.POs))
	}
	if got := len(ed.Instances); got != 5 {
		t.Errorf("instances: got %d, want 5 (top + 4 FAs)", got)
	}
	if ed.Top.SubtreeGates != 20 {
		t.Errorf("top subtree gates: got %d, want 20", ed.Top.SubtreeGates)
	}
	fa2 := ed.Instance("adder4.fa2")
	if fa2 == nil {
		t.Fatal("adder4.fa2 not found")
	}
	if fa2.SubtreeGates != 5 || len(fa2.Gates) != 5 || fa2.Depth != 1 {
		t.Errorf("fa2 wrong: subtree=%d direct=%d depth=%d", fa2.SubtreeGates, len(fa2.Gates), fa2.Depth)
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("netlist invalid: %v", err)
	}
	// fa0's cin is tied to constant 0.
	var foundConst bool
	for _, n := range nl.Nets {
		if n.Const == 0 && len(n.Sinks) > 0 {
			foundConst = true
		}
	}
	if !foundConst {
		t.Error("expected a used const-0 net for fa0 cin")
	}
}

func TestElaborateCarryChainIsShared(t *testing.T) {
	ed := mustElab(t, adder4Src, "adder4")
	nl := ed.Netlist
	// The net c[0] must connect fa0's cout driver (an or gate in fa0) to
	// sinks inside fa1. Find it by name.
	var carry *netlist.Net
	for i := range nl.Nets {
		if strings.Contains(nl.Nets[i].Name, "c[0]") {
			carry = &nl.Nets[i]
			break
		}
	}
	if carry == nil {
		t.Fatal("net c[0] not found")
	}
	if carry.Driver == netlist.NoGate {
		t.Fatal("c[0] has no driver")
	}
	if !strings.Contains(nl.Gates[carry.Driver].Path, "fa0") {
		t.Errorf("c[0] driver is %s, want a gate in fa0", nl.Gates[carry.Driver].Path)
	}
	var sinkInFa1 bool
	for _, s := range carry.Sinks {
		if strings.Contains(nl.Gates[s].Path, "fa1") {
			sinkInFa1 = true
		}
	}
	if !sinkInFa1 {
		t.Error("c[0] has no sink in fa1")
	}
}

const assignSrc = `
module m (input [1:0] a, output [1:0] y);
  assign y = a;
endmodule
`

func TestElaborateAssignBecomesBuf(t *testing.T) {
	ed := mustElab(t, assignSrc, "m")
	if got := ed.Netlist.NumGates(); got != 2 {
		t.Fatalf("gates: got %d, want 2 buffers", got)
	}
	for _, g := range ed.Netlist.Gates {
		if g.Kind != verilog.GateBuf {
			t.Errorf("gate %s: kind %s, want buf", g.Path, g.Kind)
		}
	}
}

const dffSrc = `
module reg2 (input [1:0] d, input clk, output [1:0] q);
  dff f0 (q[0], d[0], clk);
  dff f1 (q[1], d[1], clk);
endmodule
`

func TestElaborateDff(t *testing.T) {
	ed := mustElab(t, dffSrc, "reg2")
	st := ed.Netlist.Stats()
	if st.DFFs != 2 || st.Combinational != 0 {
		t.Fatalf("stats: %+v, want 2 DFFs", st)
	}
	levels, err := ed.Netlist.Levels()
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range levels {
		if l != 0 {
			t.Errorf("dff %d level = %d, want 0", i, l)
		}
	}
}

const togglerSrc = `
module toggler (input clk, output q);
  wire dn;
  not n1 (dn, q);
  dff f (q, dn, clk);
endmodule
`

func TestElaborateSequentialLoopLevels(t *testing.T) {
	// A DFF in a feedback loop with an inverter: q -> not -> d -> q.
	ed := mustElab(t, togglerSrc, "toggler")
	depth, err := ed.Netlist.Depth()
	if err != nil {
		t.Fatalf("sequential loop should levelize: %v", err)
	}
	if depth < 1 {
		t.Errorf("depth = %d", depth)
	}
	order, err := ed.Netlist.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("topo order has %d gates", len(order))
	}
	// DFF must come first.
	if !ed.Netlist.Gates[order[0]].Kind.Sequential() {
		t.Error("topo order should start with the DFF")
	}
}

const loopSrc = `
module loop (input a, output y);
  wire w;
  and g1 (w, a, y);
  buf g2 (y, w);
endmodule
`

func TestElaborateCombinationalLoopDetected(t *testing.T) {
	ed := mustElab(t, loopSrc, "loop")
	if _, err := ed.Netlist.Levels(); err == nil {
		t.Fatal("expected combinational cycle error")
	}
}

// errorSources are the sources TestElaborateErrors must see refused, by
// case name; every case elaborates top "top" but "unknown top".
var errorSources = map[string]string{
	"unknown top": `module m; endmodule`,
	"unknown module": `
module top (input a, output y);
  ghost g (.a(a), .y(y));
endmodule`,
	"unknown net": `
module top (input a, output y);
  and g (y, a, phantom);
endmodule`,
	"width mismatch": `
module sub (input [3:0] x, output y);
  and g (y, x[0], x[1]);
endmodule
module top (input [1:0] a, output y);
  sub s (.x(a), .y(y));
endmodule`,
	"double driver": `
module top (input a, input b, output y);
  buf g1 (y, a);
  buf g2 (y, b);
endmodule`,
	"driven PI": `
module top (input a, output y);
  buf g1 (a, y);
  buf g2 (y, a);
endmodule`,
	"dff conn count": `
module top (input d, input clk, output q);
  dff f (q, d);
endmodule`,
	"bad port name": `
module sub (input x, output y);
  buf g (y, x);
endmodule
module top (input a, output y);
  sub s (.nope(a), .y(y));
endmodule`,
	"positional count": `
module sub (input x, output y);
  buf g (y, x);
endmodule
module top (input a, output y);
  sub s (a);
endmodule`,
	"vector gate pin": `
module top (input [1:0] a, output y);
  and g (y, a, a);
endmodule`,
	"port connected twice": `
module sub (input x, output y);
  buf g (y, x);
endmodule
module top (input a, output y);
  sub s (.x(a), .x(a), .y(y));
endmodule`,
}

// errorLines pins the first line of each refusal, as the elaborator worded
// it before it was rewritten to lay a module out once (PR 28).
var errorLines = map[string]string{
	"unknown top":          `elab: top module "nonexistent" not found`,
	"unknown module":       `elab: top: unknown module "ghost" instantiated as "g"`,
	"unknown net":          `elab: top: unknown net "phantom"`,
	"width mismatch":       `elab: top: connection a to port top.s.x is 2 bits, want 4`,
	"double driver":        `elab: net top.y driven by both top.g1 and top.g2`,
	"driven PI":            `elab: primary input a is driven by gate top.g1`,
	"dff conn count":       `elab: top.f: dff needs (q, d, clk), got 2 connections`,
	"bad port name":        `elab: top: s: module sub has no port "nope"`,
	"positional count":     `elab: top: s has 1 connections, module sub has 2 ports`,
	"vector gate pin":      `elab: top: gate input connection a is 2 bits wide, want 1`,
	"port connected twice": `elab: top: s: port "x" connected twice`,
}

func TestElaborateErrors(t *testing.T) {
	for name, src := range errorSources {
		top := "top"
		if name == "unknown top" {
			top = "nonexistent"
		}
		d, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse failed: %v", name, err)
		}
		_, err = Elaborate(d, top)
		if err == nil {
			t.Errorf("%s: expected elaboration error", name)
			continue
		}
		if line, _, _ := strings.Cut(err.Error(), "\n"); line != errorLines[name] {
			t.Errorf("%s: refused with %q, want %q", name, line, errorLines[name])
		}
	}
}

const unconnectedSrc = `
module sub (input x, input unused, output y);
  buf g (y, x);
endmodule
module top (input a, output y);
  sub s (.x(a), .y(y), .unused());
endmodule
`

func TestElaborateUnconnectedPort(t *testing.T) {
	ed := mustElab(t, unconnectedSrc, "top")
	if err := ed.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
}

const concatSrc = `
module sub (input [3:0] x, output [3:0] y);
  buf b0 (y[0], x[0]);
  buf b1 (y[1], x[1]);
  buf b2 (y[2], x[2]);
  buf b3 (y[3], x[3]);
endmodule
module top (input [1:0] a, output [3:0] y);
  sub s (.x({a, 2'b10}), .y(y));
endmodule
`

func TestElaborateConcatConnection(t *testing.T) {
	ed := mustElab(t, concatSrc, "top")
	nl := ed.Netlist
	// y[1] is driven by b1, whose input is constant 1 (bit 1 of 2'b10);
	// y[0] input is constant 0.
	findPO := func(i int) netlist.Net { return nl.Nets[nl.POs[i]] }
	// POs are in MSB-first port order per Range.Bits: y[3], y[2], y[1], y[0].
	b1in := nl.Gates[findPO(2).Driver].Inputs[0]
	if nl.Nets[b1in].Const != 1 {
		t.Errorf("y[1] should be fed const 1, got net %+v", nl.Nets[b1in])
	}
	b0in := nl.Gates[findPO(3).Driver].Inputs[0]
	if nl.Nets[b0in].Const != 0 {
		t.Errorf("y[0] should be fed const 0, got net %+v", nl.Nets[b0in])
	}
}

const partSelectSrc = `
module sub (input [3:0] x, output [1:0] y);
  buf b0 (y[0], x[0]);
  buf b1 (y[1], x[3]);
endmodule
module top (input [7:0] a, input [0:3] r, output [1:0] y, output [1:0] z, output [2:0] w);
  sub s0 (.x(a[6:3]), .y(y));
  sub s1 (.x({r[1:2], a[1:0]}), .y(z));
  assign w = {a[7], r[0:1]} ^ ~a[2:0];
endmodule
`

// TestElaboratePartSelect reads descending and ascending ranges through
// part selects: the bit a select names is found by arithmetic on the
// declared range, MSB first either way.
func TestElaboratePartSelect(t *testing.T) {
	ed := mustElab(t, partSelectSrc, "top")
	nl := ed.Netlist
	feeds := func(po int) string { return nl.Nets[nl.Gates[nl.Nets[nl.POs[po]].Driver].Inputs[0]].Name }
	// POs are y[1], y[0], z[1], z[0], w[2..0]; s0.x = a[6:3], so y[1] (from
	// x[3]) reads a[6] and y[0] (from x[0]) reads a[3]; s1.x = {r[1], r[2],
	// a[1], a[0]}, so z[1] reads r[1] and z[0] reads a[0].
	for po, want := range []string{"top.a[6]", "top.a[3]", "top.r[1]", "top.a[0]"} {
		if got := feeds(po); got != want {
			t.Errorf("PO %d is fed by %s, want %s", po, got, want)
		}
	}
	// 3 nots + 3 xors + 3 assign buffers + 2×2 bufs in the subs.
	if got := nl.NumGates(); got != 13 {
		t.Errorf("gates: got %d, want 13", got)
	}
}

// Sources names the sources above for the external test package
// (golden_test.go, fuzz_test.go), which may import gen where this package,
// which gen imports, may not.
var Sources = []struct{ Name, Top, Src string }{
	{"adder4", "adder4", adder4Src},
	{"assign", "m", assignSrc},
	{"dff", "reg2", dffSrc},
	{"toggler", "toggler", togglerSrc},
	{"loop", "loop", loopSrc},
	{"unconnected", "top", unconnectedSrc},
	{"concat", "top", concatSrc},
	{"partselect", "top", partSelectSrc},
	{"opassign", "alu1", opAssignSrc},
	{"vecop", "vec", vecOpSrc},
	{"opmismatch", "bad", opMismatchSrc},
}

// ErrorSources is errorSources for the external test package.
var ErrorSources = errorSources

func TestHierarchyHelpers(t *testing.T) {
	ed := mustElab(t, adder4Src, "adder4")
	if ed.ModuleCount() != 4 {
		t.Errorf("ModuleCount = %d, want 4", ed.ModuleCount())
	}
	if ed.MaxDepth() != 1 {
		t.Errorf("MaxDepth = %d, want 1", ed.MaxDepth())
	}
	fa0 := ed.Instance("adder4.fa0")
	if !ed.Top.IsAncestorOf(fa0) {
		t.Error("top should be ancestor of fa0")
	}
	if fa0.IsAncestorOf(ed.Top) {
		t.Error("fa0 should not be ancestor of top")
	}
	var visited int
	ed.Top.Walk(func(*Instance) { visited++ })
	if visited != 5 {
		t.Errorf("Walk visited %d, want 5", visited)
	}
	gpi := ed.GatesPerInstance()
	if gpi[0] != 0 || gpi[fa0.ID] != 5 {
		t.Errorf("GatesPerInstance wrong: %v", gpi)
	}
}

func TestFanInCone(t *testing.T) {
	ed := mustElab(t, adder4Src, "adder4")
	nl := ed.Netlist
	// The cone of s[0] (sum of fa0) should contain only fa0 gates (x1,x2),
	// not the carry chain.
	var s0 netlist.NetID = -1
	for i, po := range nl.POs {
		_ = i
		if strings.HasSuffix(nl.Nets[po].Name, "s[0]") {
			s0 = po
		}
	}
	if s0 < 0 {
		t.Fatal("s[0] not found among POs")
	}
	cone := nl.FanInCone(s0, true)
	count := 0
	for gid, in := range cone {
		if in {
			count++
			if !strings.Contains(nl.Gates[gid].Path, "fa0") {
				t.Errorf("gate %s in cone of s[0]", nl.Gates[gid].Path)
			}
		}
	}
	if count != 2 {
		t.Errorf("cone of s[0] has %d gates, want 2 (x1, x2)", count)
	}
	// Cone of cout spans all four full adders.
	var coutNet netlist.NetID = -1
	for _, po := range nl.POs {
		if strings.HasSuffix(nl.Nets[po].Name, "cout") {
			coutNet = po
		}
	}
	cone = nl.FanInCone(coutNet, true)
	count = 0
	for _, in := range cone {
		if in {
			count++
		}
	}
	if count < 10 {
		t.Errorf("cone of cout has %d gates, expected the whole carry chain", count)
	}
}

const opAssignSrc = `
module alu1 (input a, input b, input c, output y, output z, output w);
  assign y = a & b | ~c;
  assign z = a ^ b ^ c;
  assign w = ~(a | b) & c;
endmodule
`

func TestElaborateOperatorAssigns(t *testing.T) {
	ed := mustElab(t, opAssignSrc, "alu1")
	nl := ed.Netlist
	// Exhaustive truth-table check against Go's operators via simulation
	// would need the sim package (import cycle); check structurally and
	// evaluate by hand through the netlist instead.
	eval := func(values map[netlist.NetID]bool, n netlist.NetID) bool {
		var rec func(netlist.NetID) bool
		rec = func(id netlist.NetID) bool {
			if v, ok := values[id]; ok {
				return v
			}
			net := nl.Nets[id]
			if net.Const == 1 {
				return true
			}
			if net.Const == 0 || net.Driver == netlist.NoGate {
				return false
			}
			g := nl.Gates[net.Driver]
			in := make([]bool, len(g.Inputs))
			for i, gi := range g.Inputs {
				in[i] = rec(gi)
			}
			return g.Kind.Eval(in)
		}
		return rec(n)
	}
	for v := 0; v < 8; v++ {
		a, b, c := v&1 == 1, v&2 == 2, v&4 == 4
		values := map[netlist.NetID]bool{nl.PIs[0]: a, nl.PIs[1]: b, nl.PIs[2]: c}
		wantY := (a && b) || !c
		wantZ := a != b != c
		wantW := !(a || b) && c
		if got := eval(values, nl.POs[0]); got != wantY {
			t.Errorf("a=%v b=%v c=%v: y=%v want %v", a, b, c, got, wantY)
		}
		if got := eval(values, nl.POs[1]); got != wantZ {
			t.Errorf("a=%v b=%v c=%v: z=%v want %v", a, b, c, got, wantZ)
		}
		if got := eval(values, nl.POs[2]); got != wantW {
			t.Errorf("a=%v b=%v c=%v: w=%v want %v", a, b, c, got, wantW)
		}
	}
}

const vecOpSrc = `
module vec (input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a & ~b;
endmodule
`

func TestElaborateVectorOperatorAssign(t *testing.T) {
	ed := mustElab(t, vecOpSrc, "vec")
	// 4 not gates + 4 and gates + 4 assign buffers.
	if got := ed.Netlist.NumGates(); got != 12 {
		t.Errorf("gates: got %d, want 12", got)
	}
}

const opMismatchSrc = `
module bad (input [3:0] a, input [1:0] b, output [3:0] y);
  assign y = a & b;
endmodule
`

func TestElaborateOperatorWidthMismatch(t *testing.T) {
	d, err := verilog.Parse(opMismatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Elaborate(d, "bad"); err == nil {
		t.Error("width mismatch in operator should error")
	}
}

func TestWriteHierarchy(t *testing.T) {
	ed := mustElab(t, adder4Src, "adder4")
	var buf strings.Builder
	if err := ed.WriteHierarchy(&buf, -1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"adder4  (20 gates)", "fa0 : full_adder  (5 gates)"} {
		if !strings.Contains(out, want) {
			t.Errorf("hierarchy output missing %q:\n%s", want, out)
		}
	}
	// Depth limiting.
	buf.Reset()
	if err := ed.WriteHierarchy(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fa0") {
		t.Error("depth 0 should not show children")
	}
}

// TestElaborateRefusesHostileSizes feeds designs a few dozen bytes long
// that ask for gigabytes — `vsimd` elaborates source it received over TCP —
// and wants each refused on arithmetic alone: an error within a second and
// 64 MB, never a panic, a hang or the kernel's OOM killer.
func TestElaborateRefusesHostileSizes(t *testing.T) {
	doubling := "module m0; endmodule\n"
	for i := 1; i <= 40; i++ { // 2^40 instances, none with a bit to its name
		doubling += fmt.Sprintf("module m%d; m%d u (); m%d v (); endmodule\n", i, i-1, i-1)
	}
	cases := []struct{ name, top, src, want string }{
		{"huge range", "t", `module t(output y); wire [2000000000:0] a; endmodule`, "signal bits, limit"},
		{"reversed huge range", "t", `module t(output y); wire [0:2000000000] a; endmodule`, "signal bits, limit"},
		{"range as wide as int", "t", `module t(output y); wire [9223372036854775807:9223372036854775808] a; endmodule`, "signal bits, limit"},
		{"literal in an assign", "t", `module t(output [3:0] a); assign a = 2000000000'b0; endmodule`, "assign width mismatch"},
		{"literal under an operator", "t", `module t(output [3:0] a); assign a = ~2000000000'b0; endmodule`, "assign width mismatch"},
		{"literal in a port connection", "t",
			`module s(input [3:0] x); endmodule module t(output y); s u (.x(2000000000'b0)); endmodule`, "is 2000000000 bits, want 4"},
		{"literal in a gate pin", "t", `module t(output y); buf g (y, 2000000000'b0); endmodule`, "is 2000000000 bits wide, want 1"},
		{"bus repeated in a concatenation", "t", `module t(input [99999:0] a, output [99999:0] b); assign {b` +
			strings.Repeat(`, b`, 1999) + `} = {a` + strings.Repeat(`, a`, 1999) + `}; endmodule`, "gates, limit"},
		{"instances doubling forty times", "m40", doubling, "instances, limit"},
		{"recursive instantiation", "t", `module t(input a); t u (a); t v (a); endmodule`, "deeper than 64 levels"},
	}
	for _, c := range cases {
		d, err := verilog.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err = Elaborate(d, c.top)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a refusal mentioning %q", c.name, err, c.want)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; took > time.Second || mb > 64 {
			t.Errorf("%s: refused after %v and %d MB", c.name, took, mb)
		}
	}
}
