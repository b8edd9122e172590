package multilevel

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/hypergraph"
)

// workload is one canonical circuit: the elaborated design (what the
// design-driven partitioner consumes) and its flat hypergraph.
type workload struct {
	name   string
	design *elab.Design
	flat   *hypergraph.H
}

// canonicalWorkloads builds the four canonical smoke-size workloads used
// across the repo's differential suites, in a fixed order.
func canonicalWorkloads(t *testing.T) []workload {
	t.Helper()
	var out []workload
	add := func(name string, c *gen.Circuit) {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h, err := hypergraph.BuildFlat(ed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, workload{name: name, design: ed, flat: h})
	}
	add("viterbi", gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}))
	add("fir", gen.FIR(gen.FIRConfig{Taps: 8, W: 6, Seed: 3}))
	add("multiplier", gen.Multiplier(6))
	add("soc", gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	}))
	return out
}

func TestPartitionNBasic(t *testing.T) {
	h := flatViterbi(t)
	for _, k := range []int{2, 3, 4, 8} {
		res, err := PartitionN(h, Options{K: k, B: 10, Seed: 1})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Assignment.Validate(h); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Balanced {
			t.Errorf("k=%d: not balanced: %v", k, res.Loads)
		}
		if res.Levels < 2 {
			t.Errorf("k=%d: expected real coarsening rounds, got %d", k, res.Levels)
		}
		t.Logf("k=%d: cut=%d loads=%v rounds=%d restart=%d", k, res.Cut, res.Loads, res.Levels, res.Restart)
	}
}

// TestPartitionNDeterministicAcrossWorkers is the ISSUE's determinism
// gate: same seed must yield the identical assignment at Workers 1 and 4.
func TestPartitionNDeterministicAcrossWorkers(t *testing.T) {
	for _, w := range canonicalWorkloads(t) {
		name, h := w.name, w.flat
		for _, k := range []int{2, 4, 8} {
			var ref *Result
			for _, workers := range []int{1, 4} {
				res, err := PartitionN(h, Options{K: k, B: 10, Seed: 1, Workers: workers})
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", name, k, workers, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Cut != ref.Cut {
					t.Errorf("%s k=%d: cut %d at workers=4, %d at workers=1", name, k, res.Cut, ref.Cut)
				}
				for v := range res.Assignment.Parts {
					if res.Assignment.Parts[v] != ref.Assignment.Parts[v] {
						t.Fatalf("%s k=%d: vertex %d in block %d at workers=4, %d at workers=1",
							name, k, v, res.Assignment.Parts[v], ref.Assignment.Parts[v])
					}
				}
			}
		}
	}
}

// levelCopyCut is the flat baseline's cut at the parent of PR 18, when it
// still coarsened by random-order matching into a fresh hypergraph per
// level: canonicalWorkloads order × k ∈ {2,4,8}, b=10, seed 1.
var levelCopyCut = map[string][3]int{
	"viterbi":    {23, 41, 71},
	"fir":        {22, 48, 46},
	"multiplier": {12, 25, 36},
	"soc":        {0, 16, 76},
}

// TestFlatCutNoWorseThanLevelCopy is the condition under which the
// level-copy coarsener was deleted (ROADMAP item 2): on all four workloads
// at k ∈ {2,4,8} the baseline on the shared skeleton cuts no more nets than
// the engine it replaced, and both policies stay balanced.
func TestFlatCutNoWorseThanLevelCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("quality sweep in -short mode")
	}
	for _, w := range canonicalWorkloads(t) {
		name, h := w.name, w.flat
		for ki, k := range []int{2, 4, 8} {
			opts := Options{K: k, B: 10, Seed: 1}
			flat, err := Partition(h, opts)
			if err != nil {
				t.Fatalf("%s k=%d flat: %v", name, k, err)
			}
			nl, err := PartitionN(h, opts)
			if err != nil {
				t.Fatalf("%s k=%d n-level: %v", name, k, err)
			}
			was := levelCopyCut[name][ki]
			t.Logf("%s k=%d: level-copy cut=%d, flat cut=%d, n-level cut=%d", name, k, was, flat.Cut, nl.Cut)
			if flat.Cut > was {
				t.Errorf("%s k=%d: flat cut %d worse than the level-copy engine's %d", name, k, flat.Cut, was)
			}
			if !flat.Balanced {
				t.Errorf("%s k=%d: flat result unbalanced: %v", name, k, flat.Loads)
			}
			if !nl.Balanced {
				t.Errorf("%s k=%d: n-level result unbalanced: %v", name, k, nl.Loads)
			}
		}
	}
}

// TestPartitionNOversizedSolo: a vertex heavier than the window's upper
// bound must sit alone in a solo block instead of flattening or failing,
// with the remaining blocks balanced over the remaining weight.
func TestPartitionNOversizedSolo(t *testing.T) {
	// 1 giant (weight 500) + 60 unit vertices in a ring, k=4, b=10:
	// window over 560 is [84, 196] → the giant is oversized.
	h := &hypergraph.H{}
	add := func(w int) hypergraph.VertexID {
		v := hypergraph.VertexID(len(h.Vertices))
		h.Vertices = append(h.Vertices, hypergraph.Vertex{ID: v, Weight: w})
		h.TotalWeight += w
		return v
	}
	giant := add(500)
	for i := 0; i < 60; i++ {
		add(1)
	}
	edge := func(pins ...hypergraph.VertexID) {
		e := hypergraph.EdgeID(len(h.Edges))
		h.Edges = append(h.Edges, hypergraph.Edge{ID: e, Pins: pins, Weight: 1})
		for _, p := range pins {
			h.Vertices[p].Edges = append(h.Vertices[p].Edges, e)
		}
	}
	for i := 1; i <= 60; i++ {
		next := i%60 + 1
		edge(hypergraph.VertexID(i), hypergraph.VertexID(next))
	}
	edge(giant, 1) // tie the giant to the ring

	res, err := PartitionN(h, Options{K: 4, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gBlock := res.Assignment.Parts[giant]
	if res.Loads[gBlock] != 500 {
		t.Errorf("giant must sit alone: block %d load %d, want 500", gBlock, res.Loads[gBlock])
	}
	if !res.Balanced {
		t.Errorf("aware balance must hold: loads %v", res.Loads)
	}
	// Remaining 60 weight over 3 blocks, b=10 → window [14, 26].
	for b, l := range res.Loads {
		if int32(b) == gBlock {
			continue
		}
		if l < 14 || l > 26 {
			t.Errorf("shared block %d load %d outside [14,26]", b, l)
		}
	}
}
