package partition

import (
	"math"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/hypergraph"
)

func viterbiDesign(t *testing.T) *elab.Design {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 5, W: 6, TB: 16})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

func TestConstraintBounds(t *testing.T) {
	c := Constraint{K: 4, B: 10, Total: 1000}
	lo, hi := c.Bounds()
	if lo != 150 || hi != 350 {
		t.Errorf("bounds: got [%d,%d], want [150,350]", lo, hi)
	}
	if !c.Satisfied([]int{150, 350, 250, 250}) {
		t.Error("boundary loads should satisfy")
	}
	if c.Satisfied([]int{149, 351, 250, 250}) {
		t.Error("out-of-window loads should not satisfy")
	}
	if got := c.Violation([]int{140, 360, 250, 250}); got != 20 {
		t.Errorf("violation: got %d, want 20", got)
	}
	if got := c.Violation([]int{250, 250, 250, 250}); got != 0 {
		t.Errorf("violation of balanced: got %d, want 0", got)
	}
}

func TestConstraintNegativeLowerBound(t *testing.T) {
	// b large enough that the lower bound would be negative: clamp to 0.
	c := Constraint{K: 2, B: 60, Total: 100}
	lo, hi := c.Bounds()
	if lo != 0 {
		t.Errorf("lo: got %d, want 0", lo)
	}
	if hi != 110 {
		// The paper's formula allows hi > total for extreme b; only the
		// lower bound needs clamping.
		t.Errorf("hi: got %d, want 110", hi)
	}
}

func TestMultiwayBasic(t *testing.T) {
	ed := viterbiDesign(t)
	for _, k := range []int{2, 3, 4} {
		res, err := Multiway(ed, Options{K: k, B: 10})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := res.Assignment.Validate(res.H); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Balanced {
			t.Errorf("k=%d: not balanced: loads %v, %s", k, res.Loads, res.Constraint)
		}
		if res.Cut != hypergraph.CutSize(res.H, res.Assignment) {
			t.Errorf("k=%d: reported cut %d mismatches", k, res.Cut)
		}
		if len(res.GateParts) != ed.Netlist.NumGates() {
			t.Errorf("k=%d: GateParts len %d", k, len(res.GateParts))
		}
		for _, p := range res.GateParts {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: bad gate part %d", k, p)
			}
		}
		t.Logf("k=%d b=10: cut=%d loads=%v flattened=%d rounds=%d",
			k, res.Cut, res.Loads, res.Flattened, res.Rounds)
	}
}

func TestMultiwayCutDecreasesWithB(t *testing.T) {
	// Paper Table 1: relaxing the balance constraint (larger b) lets the
	// partitioner preserve more hierarchy, reducing the cut. Requiring
	// monotonicity per step is too strict for a heuristic; require the
	// loosest b to beat the tightest meaningfully.
	ed := viterbiDesign(t)
	cutAt := func(b float64) int {
		res, err := Multiway(ed, Options{K: 2, B: b})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cut
	}
	tight := cutAt(2.5)
	loose := cutAt(15)
	if loose > tight {
		t.Errorf("cut at b=15 (%d) should not exceed cut at b=2.5 (%d)", loose, tight)
	}
	t.Logf("cut b=2.5: %d, b=15: %d", tight, loose)
}

func TestMultiwayStrategies(t *testing.T) {
	ed := viterbiDesign(t)
	for _, s := range []PairingStrategy{PairRandom, PairExhaustive, PairCutBased, PairGainBased} {
		res, err := Multiway(ed, Options{K: 3, B: 10, Strategy: s, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !res.Balanced {
			t.Errorf("%s: unbalanced loads %v", s, res.Loads)
		}
		t.Logf("strategy %s: cut=%d", s, res.Cut)
	}
}

func TestMultiwayFlatteningTriggers(t *testing.T) {
	// A design with one huge top-level instance and several small ones:
	// balance at tight b is impossible without flattening the big one.
	src := `
module leaf (input a, input b, output y);
  and g1 (y, a, b);
endmodule
module big (input a, input b, output y);
  wire w1, w2, w3;
  and g1 (w1, a, b);
  or  g2 (w2, w1, a);
  xor g3 (w3, w2, b);
  and g4 (y, w3, w1);
endmodule
module huge (input a, input b, output y);
  wire [15:0] w;
  big b0 (a, b, w[0]);
  big b1 (w[0], a, w[1]);
  big b2 (w[1], b, w[2]);
  big b3 (w[2], a, w[3]);
  big b4 (w[3], b, w[4]);
  big b5 (w[4], a, w[5]);
  big b6 (w[5], b, w[6]);
  big b7 (w[6], a, w[7]);
  buf ob (y, w[7]);
endmodule
module top (input a, input b, output y, output z);
  wire m;
  huge h (.a(a), .b(b), .y(m));
  leaf l1 (.a(m), .b(b), .y(z));
  leaf l2 (.a(a), .b(m), .y(y));
endmodule
`
	ed := mustElabSrc(t, src, "top")
	// huge = 33 gates; leaves = 1 each. Total 35. k=2, b=5 → window
	// [15.75→16, 19.25→19]. Impossible without flattening `huge`.
	res, err := Multiway(ed, Options{K: 2, B: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flattened == 0 {
		t.Error("expected flattening to trigger")
	}
	if !res.Balanced {
		t.Errorf("not balanced after flattening: loads %v (%s)", res.Loads, res.Constraint)
	}
}

func TestMultiwayDisableFlattening(t *testing.T) {
	ed := viterbiDesign(t)
	res, err := Multiway(ed, Options{K: 2, B: 10, DisableFlattening: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flattened != 0 {
		t.Errorf("flattening ran despite being disabled: %d", res.Flattened)
	}
}

func TestMultiwayErrors(t *testing.T) {
	ed := viterbiDesign(t)
	if _, err := Multiway(ed, Options{K: 1, B: 10}); err == nil {
		t.Error("K=1 should error")
	}
}

// TestRejectsUnusableB holds both design-driven entry points to CheckB:
// every balance factor that is not a positive finite percentage is an
// error naming it, NaN and +Inf included, before any partitioning runs.
func TestRejectsUnusableB(t *testing.T) {
	ed := viterbiDesign(t)
	for name, run := range map[string]func(Options) (*Result, error){
		"Multiway":  func(o Options) (*Result, error) { return Multiway(ed, o) },
		"Recursive": func(o Options) (*Result, error) { return Recursive(ed, o) },
	} {
		for _, b := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			res, err := run(Options{K: 2, B: b})
			if err == nil || !strings.Contains(err.Error(), "partition: B must be") {
				t.Errorf("%s with B=%g: result %v, error %v; want a rejection of B", name, b, res, err)
			}
		}
	}
}

func TestGatePartsConsistentWithVertices(t *testing.T) {
	ed := viterbiDesign(t)
	res, err := Multiway(ed, Options{K: 3, B: 10})
	if err != nil {
		t.Fatal(err)
	}
	for gi, v := range res.H.GateVertex {
		if res.GateParts[gi] != res.Assignment.Parts[v] {
			t.Fatalf("gate %d part mismatch", gi)
		}
	}
}

func TestPairingStrategyParse(t *testing.T) {
	for _, name := range []string{"random", "exhaustive", "cut", "gain"} {
		s, ok := ParsePairingStrategy(name)
		if !ok || s.String() != name {
			t.Errorf("%s: got %v, %v", name, s, ok)
		}
	}
	if _, ok := ParsePairingStrategy("bogus"); ok {
		t.Error("bogus should not parse")
	}
}

func mustElabSrc(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	c := &gen.Circuit{Name: "test", Top: top, Source: src}
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}
