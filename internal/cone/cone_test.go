package cone

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
)

func TestConePartitionCompleteAndConserving(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 5, W: 6, TB: 16})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 4, 7} {
		a := Partition(ed, h, k)
		if err := a.Validate(h); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
		loads := hypergraph.PartLoads(h, a)
		sum := 0
		for _, l := range loads {
			sum += l
		}
		if sum != h.TotalWeight {
			t.Errorf("k=%d: loads sum %d, want %d", k, sum, h.TotalWeight)
		}
		// Cone packing should put something in every partition for a
		// circuit with many outputs.
		for p, l := range loads {
			if l == 0 {
				t.Errorf("k=%d: partition %d is empty", k, p)
			}
		}
	}
}

func TestConePartitionDeterministic(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		t.Fatal(err)
	}
	a := Partition(ed, h, 3)
	b := Partition(ed, h, 3)
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatal("cone partitioning is not deterministic")
		}
	}
}

func TestVertexGraphStructure(t *testing.T) {
	c := gen.Multiplier(4)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildFlat(ed)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildVertexGraph(ed, h)
	if len(g.Roots) == 0 {
		t.Fatal("no roots found")
	}
	// Every root must drive a PO net or a DFF data input (pseudo-PO).
	nl := ed.Netlist
	okRoots := map[hypergraph.VertexID]bool{}
	for _, po := range nl.POs {
		if d := nl.Nets[po].Driver; d >= 0 {
			okRoots[h.GateVertex[d]] = true
		}
	}
	for gi := range nl.Gates {
		if nl.Gates[gi].Kind.Sequential() {
			dNet := nl.Gates[gi].Inputs[0]
			if d := nl.Nets[dNet].Driver; d >= 0 {
				okRoots[h.GateVertex[d]] = true
			}
		}
	}
	for _, r := range g.Roots {
		if !okRoots[r] {
			t.Errorf("root %d drives neither a PO nor a DFF d-input", r)
		}
	}
}

func TestConeOnFlatHypergraph(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildFlat(ed)
	if err != nil {
		t.Fatal(err)
	}
	a := Partition(ed, h, 4)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
}

// TestConePartitionAllocates keeps Partition costing what its cones visit:
// a pair of netlist-sized bitsets per cone root (2,194 roots on the SoC)
// allocated 78 MB a call.
func TestConePartitionAllocates(t *testing.T) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		Partition(ed, h, 4)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 2<<20 {
		t.Errorf("cone.Partition allocates %d bytes a call on the SoC, want under 2 MB", perCall)
	}
}
