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

// TestOversized: a vertex heavier than hi can never share a window.
func TestOversized(t *testing.T) {
	c := Constraint{K: 4, B: 10, Total: 1000} // window [150, 350]
	if c.Oversized(350) {
		t.Error("weight 350 fits exactly at hi")
	}
	if !c.Oversized(351) {
		t.Error("weight 351 exceeds hi and must be oversized")
	}
}

// TestAwareSoloBlocks: with an oversized super-gate parked alone in block
// 0, the window is re-derived over the remaining blocks and weight, solo
// loads are exempt, and moves touching the solo block are rejected.
func TestAwareSoloBlocks(t *testing.T) {
	c := Constraint{K: 4, B: 10, Total: 1000} // plain window [150, 350]
	solo := []bool{true, false, false, false}
	a := c.Aware(solo, 400) // block 0 holds a weight-400 super-gate

	// Remaining: 600 over 3 blocks → window 600·(1/3 ± 0.1) = [140, 260].
	if lo, hi := a.Rem.Bounds(); lo != 140 || hi != 260 {
		t.Fatalf("rem window [%d,%d], want [140,260]", lo, hi)
	}
	if !a.Satisfied([]int{400, 200, 200, 200}) {
		t.Error("solo block load must be exempt")
	}
	if a.Satisfied([]int{400, 300, 150, 150}) {
		t.Error("non-solo block above rem hi must fail")
	}
	loads := []int{400, 200, 200, 200}
	feasible := func(w int, from, to int32) bool {
		return a.Feasible(func(hypergraph.VertexID) int { return w })(0, from, to, loads)
	}
	if feasible(10, 0, 1) {
		t.Error("moving out of a solo block must be rejected")
	}
	if feasible(10, 1, 0) {
		t.Error("moving into a solo block must be rejected")
	}
	if !feasible(10, 1, 2) {
		t.Error("a window-respecting move between shared blocks must pass")
	}
	if feasible(70, 1, 2) {
		t.Error("a move overflowing rem hi must be rejected")
	}

	// No solo blocks → degenerates to the plain constraint.
	plain := c.Aware([]bool{false, false, false, false}, 0)
	if lo, hi := plain.Rem.Bounds(); lo != 150 || hi != 350 {
		t.Fatalf("degenerate window [%d,%d], want [150,350]", lo, hi)
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
