package elab_test

import (
	"math"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/verilog"
)

// fuzzSeeds are every generator family at sizes a fuzz worker turns over in
// microseconds, and every source elaborate_test.go elaborates or refuses.
func fuzzSeeds() []*gen.Circuit {
	cs := []*gen.Circuit{
		gen.Viterbi(gen.ViterbiConfig{K: 3, W: 3, TB: 3}),
		gen.ViterbiSoC(gen.SoCConfig{Channels: 2, Viterbi: gen.ViterbiConfig{K: 3, W: 3, TB: 2}, ScramblerBits: 4, CRCBits: 4}),
		gen.Multiplier(3),
		gen.LFSR(5, nil),
		gen.FIR(gen.FIRConfig{Taps: 2, W: 3, Seed: 3}),
	}
	for seed := int64(1); seed <= 3; seed++ {
		cs = append(cs, gen.RandomHierarchical(gen.RandHierConfig{ModuleTypes: 3, GatesPerModule: 5,
			InstancesPerModule: 2, TopInstances: 3, PIs: 3, Seed: seed, DFFFraction: 0.3}))
	}
	for _, s := range elab.Sources {
		cs = append(cs, &gen.Circuit{Name: s.Name, Top: s.Top, Source: s.Src})
	}
	for name, src := range elab.ErrorSources {
		cs = append(cs, &gen.Circuit{Name: name, Top: "top", Source: src})
	}
	return cs
}

// sizeBound estimates from above, from the AST alone, the bits, gates and
// instances elaborating m would materialise. The elaborator refuses what
// passes its own bound of 2^27, but a design just under it is gigabytes, and
// a fuzz worker shares its machine: the target skips what this calls large.
// A module met again while it is being sized counts for nothing — the
// elaborator refuses the recursion, and the fuzzer should watch it do so.
func sizeBound(d *verilog.Design, m *verilog.Module, memo map[*verilog.Module]float64) float64 {
	if v, ok := memo[m]; ok || m == nil {
		return v
	}
	memo[m] = 0
	width := map[string]float64{}
	size, widest := 1.0, 1.0
	for _, n := range m.Nets {
		width[n.Name] = float64(n.Range.Width())
		size += width[n.Name]
		widest = math.Max(widest, width[n.Name])
	}
	// measure returns an expression's widest possible width and how many
	// operators it holds; each operator is at most one gate a bit.
	var measure func(x verilog.Expr) (w, ops float64)
	measure = func(x verilog.Expr) (w, ops float64) {
		switch x := x.(type) {
		case *verilog.Ref:
			return width[x.Name], 0
		case *verilog.Concat:
			for _, p := range x.Parts {
				pw, pops := measure(p)
				w, ops = w+pw, ops+pops
			}
			return w, ops
		case *verilog.Unary:
			w, ops = measure(x.X)
			return w, ops + 1
		case *verilog.Binary:
			xw, xops := measure(x.X)
			yw, yops := measure(x.Y)
			return math.Max(xw, yw), xops + yops + 1
		case *verilog.Const:
			return math.Max(float64(x.Width), widest), 0
		}
		return widest, 0 // selects
	}
	cost := func(x verilog.Expr) {
		if x != nil {
			w, ops := measure(x)
			size += w * (1 + ops)
		}
	}
	for _, g := range m.Gates {
		for _, c := range g.Conns {
			cost(c)
		}
	}
	for _, a := range m.Assigns {
		cost(a.LHS)
		cost(a.RHS)
	}
	for _, mi := range m.Instances {
		for _, c := range mi.Positional {
			cost(c)
		}
		for _, c := range mi.Named {
			cost(c.Expr)
		}
		size += sizeBound(d, d.Module(mi.ModuleName), memo)
	}
	memo[m] = size
	return size
}

// checkDesign holds what every successful elaboration promises beyond the
// golden digests: a valid netlist, gate ownership that agrees in both
// directions, subtree counts that add up, and slices — all views of shared
// arrays — that cannot grow into their neighbours.
func checkDesign(t *testing.T, ed *elab.Design) {
	t.Helper()
	nl := ed.Netlist
	if err := nl.Validate(); err != nil {
		t.Fatalf("invalid netlist: %v", err)
	}
	if ed.Top.SubtreeGates != len(nl.Gates) {
		t.Fatalf("top subtree holds %d gates, netlist %d", ed.Top.SubtreeGates, len(nl.Gates))
	}
	owned := 0
	for _, inst := range ed.Instances {
		sub := len(inst.Gates)
		for _, c := range inst.Children {
			sub += c.SubtreeGates
		}
		if sub != inst.SubtreeGates {
			t.Fatalf("%s: SubtreeGates %d, its gates and children add up to %d", inst.Path, inst.SubtreeGates, sub)
		}
		for _, g := range inst.Gates {
			if nl.Gates[g].Owner != inst.ID {
				t.Fatalf("%s lists gate %s, owned by instance %d", inst.Path, nl.Gates[g].Path, nl.Gates[g].Owner)
			}
			owned++
		}
	}
	if owned != len(nl.Gates) {
		t.Fatalf("instances list %d gates, netlist has %d", owned, len(nl.Gates))
	}
	before := digest(ed)
	for i := range nl.Nets {
		_ = append(nl.Nets[i].Sinks, -7)
	}
	for i := range nl.Gates {
		_ = append(nl.Gates[i].Inputs, -7)
	}
	for _, inst := range ed.Instances {
		_ = append(inst.Gates, -7)
		_ = append(inst.Children, nil)
	}
	if digest(ed) != before {
		t.Fatal("appending to one slice of the design wrote into another")
	}
}

func FuzzElaborate(f *testing.F) {
	for _, c := range fuzzSeeds() {
		f.Add(c.Source, c.Top)
	}
	f.Fuzz(func(t *testing.T, src, top string) {
		d, err := verilog.Parse(src)
		if err != nil {
			return
		}
		if sizeBound(d, d.Module(top), map[*verilog.Module]float64{}) > 1<<20 {
			t.Skip("legal, perhaps, but too large for a fuzz worker")
		}
		ed, err := elab.Elaborate(d, top)
		if err != nil {
			return
		}
		checkDesign(t, ed)
		again, err := elab.Elaborate(d, top)
		if err != nil {
			t.Fatalf("second elaboration of one AST refused: %v", err)
		}
		if digest(again) != digest(ed) {
			t.Fatal("two elaborations of one AST differ")
		}
	})
}
