package partition

import (
	"math"
	"testing"

	"repro/internal/hypergraph"
)

// TestBoundsExactIntegerEndpoints: window endpoints that are
// mathematically integral must round to themselves, even when the float
// products land a hair off. total=600, k=6, b=2.5 has hi = 600·(1/6 +
// 0.025) = 115 exactly, but the float product is 114.99999999999999: the
// old int(hiF) floor reported 114 and wrongly rejected a perfectly legal
// load of 115.
func TestBoundsExactIntegerEndpoints(t *testing.T) {
	cases := []struct {
		total  int
		k      int
		b      float64
		lo, hi int
	}{
		{600, 6, 2.5, 85, 115},
		{1200, 6, 2.5, 170, 230},
		{1000, 4, 10, 150, 350},
		{30, 3, 10, 7, 13},
	}
	for _, c := range cases {
		cons := Constraint{K: c.k, B: c.b, Total: c.total}
		lo, hi := cons.Bounds()
		if lo != c.lo || hi != c.hi {
			t.Errorf("total=%d k=%d b=%g: got [%d,%d], want [%d,%d]",
				c.total, c.k, c.b, lo, hi, c.lo, c.hi)
		}
	}
}

// TestBoundsTinyB: a near-zero balance factor must leave a window that a
// perfectly even split still satisfies (total=30, k=3 → exactly [10,10]),
// not one narrowed to emptiness by float noise in 30·(1/3 ± ε).
func TestBoundsTinyB(t *testing.T) {
	c := Constraint{K: 3, B: 1e-9, Total: 30}
	lo, hi := c.Bounds()
	if lo != 10 || hi != 10 {
		t.Fatalf("b≈0 window: got [%d,%d], want [10,10]", lo, hi)
	}
	if !c.Satisfied([]int{10, 10, 10}) {
		t.Error("even split must satisfy the b≈0 window")
	}
	if c.Satisfied([]int{9, 11, 10}) {
		t.Error("uneven split must not satisfy the b≈0 window")
	}
}

// TestFeasibleReadsTheWeightFunction: the move predicate judges the
// weight its weight function reports against the window: a move that
// stays inside passes, one that overflows the destination fails, and one
// that shrinks the total violation of an unbalanced pair passes.
func TestFeasibleReadsTheWeightFunction(t *testing.T) {
	c := Constraint{K: 4, B: 10, Total: 1000} // window [150, 350]
	feasible := func(w int, loads []int) bool {
		return c.Feasible(func(hypergraph.VertexID) int { return w })(0, 1, 2, loads)
	}
	if !feasible(10, []int{250, 250, 250, 250}) {
		t.Error("a window-respecting move must pass")
	}
	if feasible(120, []int{250, 250, 250, 250}) {
		t.Error("a move overflowing the destination's hi must be rejected")
	}
	// 500 → 300 by 100 overflows the destination (400 > 350) but takes the
	// pair's excess from 150 to 100.
	if !feasible(100, []int{200, 500, 300, 0}) {
		t.Error("a move that shrinks the violation must pass")
	}
}

// TestCeilFloorEps: genuine fractional parts round outward; float-noise
// deviations from an integer snap back to it.
func TestCeilFloorEps(t *testing.T) {
	cases := []struct {
		x     float64
		ceil  int
		floor int
	}{
		{10, 10, 10},
		{10.5, 11, 10},
		{10.0000001, 11, 10},             // genuine fraction, above noise
		{9.9999999, 10, 9},               // genuine fraction, below 10
		{math.Nextafter(10, 11), 10, 10}, // one ulp of noise above
		{math.Nextafter(10, 9), 10, 10},  // one ulp of noise below
		{0, 0, 0},
		{-2.5, -2, -3},
	}
	for _, c := range cases {
		if got := ceilEps(c.x); got != c.ceil {
			t.Errorf("ceilEps(%v) = %d, want %d", c.x, got, c.ceil)
		}
		if got := floorEps(c.x); got != c.floor {
			t.Errorf("floorEps(%v) = %d, want %d", c.x, got, c.floor)
		}
	}
}
