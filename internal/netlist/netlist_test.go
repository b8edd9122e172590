package netlist

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/verilog"
)

// build constructs a small netlist by hand: two inputs, an AND, a NOT, a
// DFF, one output.
//
//	a ─┬─ AND ── w ── DFF ── q (PO)
//	b ─┘            clk
//	a ── NOT ── n (PO)
func build(t *testing.T) *Netlist {
	t.Helper()
	nl := &Netlist{}
	add := func(name string, isPI, isPO bool) NetID {
		id := NetID(len(nl.Nets))
		nl.Nets = append(nl.Nets, Net{ID: id, Name: name, Driver: NoGate, IsPI: isPI, IsPO: isPO, Const: -1})
		if isPI {
			nl.PIs = append(nl.PIs, id)
		}
		if isPO {
			nl.POs = append(nl.POs, id)
		}
		return id
	}
	a := add("a", true, false)
	bb := add("b", true, false)
	clk := add("clk", true, false)
	w := add("w", false, false)
	q := add("q", false, true)
	n := add("n", false, true)

	gate := func(kind verilog.GateKind, path string, out NetID, ins ...NetID) GateID {
		id := GateID(len(nl.Gates))
		nl.Gates = append(nl.Gates, Gate{ID: id, Kind: kind, Path: path, Inputs: ins, Output: out})
		nl.Nets[out].Driver = id
		for _, in := range ins {
			nl.Nets[in].Sinks = append(nl.Nets[in].Sinks, id)
		}
		return id
	}
	gate(verilog.GateAnd, "top.g1", w, a, bb)
	gate(verilog.GateDff, "top.f1", q, w, clk)
	gate(verilog.GateNot, "top.g2", n, a)
	if err := nl.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return nl
}

func TestStats(t *testing.T) {
	nl := build(t)
	st := nl.Stats()
	if st.Gates != 3 || st.DFFs != 1 || st.Combinational != 2 {
		t.Errorf("stats: %+v", st)
	}
	if st.PIs != 3 || st.POs != 2 {
		t.Errorf("I/O: %+v", st)
	}
}

func TestIsClockNet(t *testing.T) {
	nl := build(t)
	// clk (net 2) feeds only the DFF's pin 1.
	if !nl.IsClockNet(2) {
		t.Error("clk should be a clock net")
	}
	// a feeds combinational gates.
	if nl.IsClockNet(0) {
		t.Error("a is not a clock net")
	}
	// w feeds the DFF d pin (index 0), not the clock pin.
	if nl.IsClockNet(3) {
		t.Error("w is the d input, not the clock")
	}
	// An unconnected net is not a clock.
	nl.Nets = append(nl.Nets, Net{ID: NetID(len(nl.Nets)), Name: "x", Driver: NoGate, Const: -1})
	if nl.IsClockNet(NetID(len(nl.Nets) - 1)) {
		t.Error("sinkless net is not a clock net")
	}
}

func TestLevelsAndTopoOrder(t *testing.T) {
	nl := build(t)
	levels, err := nl.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// AND and NOT read only PIs: level 0. DFF: level 0 by convention.
	for gi, l := range levels {
		if l != 0 {
			t.Errorf("gate %s level %d, want 0", nl.Gates[gi].Path, l)
		}
	}
	depth, err := nl.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 1 {
		t.Errorf("depth = %d, want 1", depth)
	}
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("topo order covers %d gates", len(order))
	}
	if !nl.Gates[order[0]].Kind.Sequential() {
		t.Error("DFFs should come first in topo order")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(nl *Netlist)
		match   string
	}{
		{"bad gate id", func(nl *Netlist) { nl.Gates[0].ID = 7 }, "has ID"},
		{"driver mismatch", func(nl *Netlist) { nl.Nets[3].Driver = 2 }, "driver"},
		{"phantom sink", func(nl *Netlist) {
			nl.Nets[4].Sinks = append(nl.Nets[4].Sinks, 0)
		}, "does not read"},
		{"missing sink", func(nl *Netlist) { nl.Nets[0].Sinks = nl.Nets[0].Sinks[:1] }, "not in its sinks"},
		{"output out of range", func(nl *Netlist) { nl.Gates[0].Output = 99 }, "out of range"},
		// What a (net, sink) map used to decide. A net lists a sink once for
		// every pin that reads it; one entry too many is tolerated, as it
		// always was, one gate missing altogether is not.
		{"first sink missing", func(nl *Netlist) { nl.Nets[0].Sinks = nl.Nets[0].Sinks[1:] },
			"gate top.g1 reads net a but is not in its sinks"},
		{"only sink missing", func(nl *Netlist) { nl.Nets[3].Sinks = nil }, "gate top.f1 reads net w"},
		{"sink listed twice", func(nl *Netlist) { nl.Nets[0].Sinks = append(nl.Nets[0].Sinks, 0) }, ""},
		{"one gate, two pins", func(nl *Netlist) {
			nl.Gates[0].Inputs[1] = 0 // g1 reads a twice and b no more
			nl.Nets[0].Sinks, nl.Nets[1].Sinks = []GateID{0, 0, 2}, nil
		}, ""},
		{"one gate, two pins, listed once", func(nl *Netlist) {
			nl.Gates[0].Inputs[1] = 0
			nl.Nets[1].Sinks = nil
		}, ""},
		{"one gate, two pins, not listed", func(nl *Netlist) {
			nl.Gates[0].Inputs[1] = 0
			nl.Nets[0].Sinks, nl.Nets[1].Sinks = []GateID{2}, nil
		}, "gate top.g1 reads net a"},
	}
	for _, c := range cases {
		nl := build(t)
		c.corrupt(nl)
		err := nl.Validate()
		if c.match == "" {
			if err != nil {
				t.Errorf("%s: legal, refused: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.match) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.match)
		}
	}
}

func TestFanInConeStopsAtDFF(t *testing.T) {
	nl := build(t)
	// Cone of q (PO, net 4) stopping at DFFs: just the DFF itself.
	cone := nl.FanInCone(4, true)
	count := 0
	for gi, in := range cone {
		if in {
			count++
			if !nl.Gates[gi].Kind.Sequential() {
				t.Errorf("unexpected gate %s in cone", nl.Gates[gi].Path)
			}
		}
	}
	if count != 1 {
		t.Errorf("cone size %d, want 1", count)
	}
	// Without the DFF boundary the AND joins too.
	cone = nl.FanInCone(4, false)
	count = 0
	for _, in := range cone {
		if in {
			count++
		}
	}
	if count != 2 {
		t.Errorf("unbounded cone size %d, want 2", count)
	}
}

// TestConeWalkerReuse walks three roots with one walker: a cone lists
// what its own walk reached and nothing an earlier walk left behind, also
// when the stamp wraps.
func TestConeWalkerReuse(t *testing.T) {
	nl := build(t)
	w := NewConeWalker(nl)
	// Net 3 is w, the DFF's d input (a cone root beside the POs q and n):
	// its cone is the AND gate; q's (net 4) stops at the DFF; a's (net 0,
	// a primary input) is empty.
	for i, c := range []struct {
		root NetID
		want []GateID
	}{{3, []GateID{0}}, {4, []GateID{1}}, {0, nil}, {3, []GateID{0}}} {
		if i == 3 {
			w.stamp = ^uint32(0) // the next walk wraps the stamp
		}
		got := w.FanIn(c.root, true)
		if !slices.Equal(got, c.want) {
			t.Errorf("cone of net %d: %v, want %v", c.root, got, c.want)
		}
	}
}
