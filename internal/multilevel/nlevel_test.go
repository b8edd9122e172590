package multilevel

import (
	"math"
	"strings"
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

// TestRejectsUnusableB holds both multilevel entry points to
// partition.CheckB: a balance factor that is not a positive finite
// percentage is an error naming B, not a window no vertex fits.
func TestRejectsUnusableB(t *testing.T) {
	h := flatViterbi(t)
	for name, run := range map[string]func(*hypergraph.H, Options) (*Result, error){
		"Partition": Partition, "PartitionN": PartitionN,
	} {
		for _, b := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			res, err := run(h, Options{K: 2, B: b})
			if err == nil || !strings.Contains(err.Error(), "multilevel: B must be") {
				t.Errorf("%s with B=%g: result %v, error %v; want a rejection of B", name, b, res, err)
			}
		}
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

// nlevelSmokeCut bounds the n-level policy's cut summed over the 96 smoke
// points of TestNLevelSmokeGrid. It read 2,896 before PR 29 and 2,897
// since: the border rule (DESIGN §31) is +1 on one point, 0 on the rest.
const nlevelSmokeCut = 2897

// TestNLevelSmokeGrid holds n-level's quality as a number rather than as
// digests, which move on any tie-break change: over the canonical circuits
// × k ∈ {2,3,4,8} × b ∈ {5,10} × seeds 1–3 the summed cut stays at or
// under nlevelSmokeCut and every point is balanced.
func TestNLevelSmokeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("quality sweep in -short mode")
	}
	sum, points := 0, 0
	for _, w := range canonicalWorkloads(t) {
		for _, k := range []int{2, 3, 4, 8} {
			for _, b := range []float64{5, 10} {
				for seed := int64(1); seed <= 3; seed++ {
					res, err := PartitionN(w.flat, Options{K: k, B: b, Seed: seed, Workers: 1})
					if err != nil {
						t.Fatalf("%s k=%d b=%g seed=%d: %v", w.name, k, b, seed, err)
					}
					if !res.Balanced {
						t.Errorf("%s k=%d b=%g seed=%d: unbalanced: %v", w.name, k, b, seed, res.Loads)
					}
					sum += res.Cut
					points++
				}
			}
		}
	}
	t.Logf("%d points: summed n-level cut %d (bound %d)", points, sum, nlevelSmokeCut)
	if sum > nlevelSmokeCut {
		t.Errorf("summed n-level cut %d over %d points, bound %d", sum, points, nlevelSmokeCut)
	}
}

// TestPartitionNOversizedSolo: a vertex heavier than the window's upper
// bound fits no block, alone or shared, so both policies refuse the input
// with an error that names the vertex rather than return an unbalanced
// partition.
func TestPartitionNOversizedSolo(t *testing.T) {
	// 1 giant (weight 500) + 60 unit vertices in a ring, k=4, b=10:
	// window over 560 is [84, 196] → the giant is oversized.
	var vs []hypergraph.Vertex
	var es []hypergraph.Edge
	add := func(w int) hypergraph.VertexID {
		vs = append(vs, hypergraph.Vertex{Weight: w})
		return hypergraph.VertexID(len(vs) - 1)
	}
	giant := add(500)
	for i := 0; i < 60; i++ {
		add(1)
	}
	edge := func(pins ...hypergraph.VertexID) {
		es = append(es, hypergraph.Edge{Pins: pins, Weight: 1})
	}
	for i := 1; i <= 60; i++ {
		next := i%60 + 1
		edge(hypergraph.VertexID(i), hypergraph.VertexID(next))
	}
	edge(giant, 1) // tie the giant to the ring
	h := hypergraph.New(vs, es)

	const want = "multilevel: vertex 0 weighs 500, above the balance window (k=4 b=10.0% window=[84,196] of 560)"
	for name, run := range map[string]func(*hypergraph.H, Options) (*Result, error){
		"flat": Partition, "n-level": PartitionN,
	} {
		res, err := run(h, Options{K: 4, B: 10, Seed: 1})
		if err == nil || err.Error() != want {
			t.Errorf("%s: result %v, error %v, want %q", name, res, err, want)
		}
	}
}
