package elab_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/verilog"
)

// digest hashes a canonical dump of everything an elaboration returns:
// every gate (kind, path, owner, inputs, output), every net (name, driver,
// sinks in order, PI/PO, const), the PI and PO lists, and every instance
// (path, name, module, depth, parent, children, direct gates, subtree
// count) in Design.Instances order.
func digest(ed *elab.Design) string {
	h, nl := sha256.New(), ed.Netlist
	fmt.Fprintf(h, "gates %d nets %d instances %d\n", len(nl.Gates), len(nl.Nets), len(ed.Instances))
	for i := range nl.Gates {
		g := &nl.Gates[i]
		fmt.Fprintf(h, "g %d %s %s owner %d in %v out %d\n", g.ID, g.Kind, g.Path, g.Owner, g.Inputs, g.Output)
	}
	for i := range nl.Nets {
		n := &nl.Nets[i]
		fmt.Fprintf(h, "n %d %s driver %d sinks %v pi %v po %v const %d\n",
			n.ID, n.Name, n.Driver, n.Sinks, n.IsPI, n.IsPO, n.Const)
	}
	fmt.Fprintf(h, "pis %v\npos %v\n", nl.PIs, nl.POs)
	if ed.Top != ed.Instances[0] {
		fmt.Fprintf(h, "top is not instance 0\n")
	}
	for _, inst := range ed.Instances {
		parent := int32(-1)
		if inst.Parent != nil {
			parent = inst.Parent.ID
		}
		fmt.Fprintf(h, "i %d %s %s module %s depth %d parent %d children", inst.ID, inst.Path, inst.Name,
			inst.Module.Name, inst.Depth, parent)
		for _, c := range inst.Children {
			fmt.Fprintf(h, " %d", c.ID)
		}
		fmt.Fprintf(h, " gates %v subtree %d\n", inst.Gates, inst.SubtreeGates)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenDigests were recorded at the commit before PR 28 rewrote the
// elaborator (e8b0be6) and are never edited: a mismatch means an
// elaboration's result moved — a GateID, a NetID, a name, a sink order —
// and with it every partition digest and waveform downstream.
var goldenDigests = map[string]string{
	"soc_ch2_k6":         "a7baef3e2363bfc65c1c4d3f6439f95cd66f04110baa6b0d3571ecb551d1b867",
	"viterbi_k7_w8_tb24": "879122ac37d600685d95ac21024c393ba97ebbd571eb247a6f684e91b1ea52c1",
	"mul32":              "ace6522913aed3daa61fb17f3750fce5908c605c4e57c462fedf329cf7f5dc22",
	"lfsr32":             "c9114ca8328416d301782c5170a51175acf0c0501d20c168137aa9e21a8d3707",
	"randhier_s1":        "6bf2ac17a04a338a5f18f8928cbef9558d38a5812bad6b6f24ac6876d9fc5b1e",
	"randhier_s2":        "7fb4e5da3a6a8dea962bb767faff675c54d34c20cb1f7d1de59dc9e8e49ff7ea",
	"randhier_s3":        "caae43aa9ae4d961148a6d7a88dae68b734885dad322a851ad3952a64959c89f",
	"src-adder4":         "2d62dcadef74ef564f9619696f025de1239576fb75cad52cbd88cde24cc6636d",
	"src-unconnected":    "983186c594877af34cb3ca1fa722cb907513f26e16f4b4af18ac681eaaf9bbef",
	"src-concat":         "5b43fec442b16554610a97c601ab69a115be7cb82df2e739842a35376ac0e4e3",
	"src-partselect":     "534002b673493084b305213e2bfbbaf10584b1576c1a042fbe0ee7d4bb0da7ae",
	"src-opassign":       "e5a90d93d540af8dbad2a8d2826517834ec072fb115d44d3806d60c1de831db3",
	"src-vecop":          "f96bfcd8bda0578ca9aef6c324298d5cc5e81226a032d51dedf2d0fe4229f4ac",
}

func goldenCircuits() []*gen.Circuit {
	cs := []*gen.Circuit{
		gen.ViterbiSoC(gen.DefaultSoC),
		gen.Viterbi(gen.DefaultViterbi),
		gen.Multiplier(32),
		gen.LFSR(32, nil),
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := gen.DefaultRandHier
		cfg.Seed = seed
		cs = append(cs, gen.RandomHierarchical(cfg))
	}
	for _, s := range elab.Sources {
		switch s.Name {
		case "adder4", "concat", "partselect", "opassign", "vecop", "unconnected":
			cs = append(cs, &gen.Circuit{Name: "src-" + s.Name, Top: s.Top, Source: s.Src})
		}
	}
	return cs
}

func TestElaborateGolden(t *testing.T) {
	for _, c := range goldenCircuits() {
		d, err := verilog.Parse(c.Source)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ed, err := elab.Elaborate(d, c.Top)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got := digest(ed); got != goldenDigests[c.Name] {
			t.Errorf("%s: digest\n\t%q: %q,\nwant %q", c.Name, c.Name, got, goldenDigests[c.Name])
		}
	}
}

// TestElaborateAllocs holds the cost beside the result: the 17,776-gate SoC
// elaborates in at most 3.5 allocations a gate (16.1 before PR 28; about
// 0.04 since — a few per module, a few arrays a design and the name chunks).
func TestElaborateAllocs(t *testing.T) {
	c := gen.ViterbiSoC(gen.DefaultSoC)
	d, err := verilog.Parse(c.Source)
	if err != nil {
		t.Fatal(err)
	}
	var ed *elab.Design
	allocs := testing.AllocsPerRun(3, func() {
		if ed, err = elab.Elaborate(d, c.Top); err != nil {
			t.Fatal(err)
		}
	})
	if gates := float64(len(ed.Netlist.Gates)); allocs > 3.5*gates {
		t.Errorf("%.0f allocations for %.0f gates = %.2f a gate, want at most 3.5", allocs, gates, allocs/gates)
	}
}
