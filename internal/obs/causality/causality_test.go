package causality

import (
	"strings"
	"testing"
)

func TestEventIDRoundTrip(t *testing.T) {
	cases := []struct {
		src int32
		seq uint64
	}{{0, 0}, {0, 1}, {3, 99}, {63, 1 << 40}}
	for _, c := range cases {
		id := Make(c.src, c.seq)
		if id == 0 {
			t.Fatalf("Make(%d,%d) = 0, collides with the none sentinel", c.src, c.seq)
		}
		if id.Cluster() != c.src || id.Seq() != c.seq {
			t.Errorf("Make(%d,%d) round-trips to (%d,%d)", c.src, c.seq, id.Cluster(), id.Seq())
		}
	}
	if s := Make(1, 42).String(); s != "c1#42" {
		t.Errorf("String() = %q, want c1#42", s)
	}
	if s := EventID(0).String(); s != "none" {
		t.Errorf("zero String() = %q, want none", s)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Attach(2, 10)
	r.CycleCost(0, 0, 5)
	r.Consumed(0, 1, 1, 0)
	a := r.Analyze()
	if a.CritPath != 0 || a.SeqCost != 0 {
		t.Errorf("nil Analyze = %+v, want zero", a)
	}
}

// TestAnalyzeCriticalPath hand-builds a two-cluster history and checks
// the DP against a hand-computed longest chain.
//
// Costs per cycle: c0 = [5, 5, 5], c1 = [1, 1, 20]. One committed message
// from c0 (seq 1) is consumed by c1 at cycle 1, adding edge (0,0)→(1,1).
// Chains: within-c0 = 15, within-c1 = 22, via the edge =
// 5 (c0 cycle 0) + 1 + 20 (c1 cycles 1,2) = 26 — the critical path.
func TestAnalyzeCriticalPath(t *testing.T) {
	r := New()
	r.Attach(2, 3)
	for cy, v := range []uint64{5, 5, 5} {
		r.CycleCost(0, uint64(cy), v)
	}
	for cy, v := range []uint64{1, 1, 20} {
		r.CycleCost(1, uint64(cy), v)
	}
	r.Consumed(1, 0, 1, 1)

	a := r.Analyze()
	if a.SeqCost != 37 {
		t.Errorf("SeqCost = %d, want 37", a.SeqCost)
	}
	if a.MaxClusterCost != 22 {
		t.Errorf("MaxClusterCost = %d, want 22", a.MaxClusterCost)
	}
	if a.CritPath != 26 {
		t.Fatalf("CritPath = %d, want 26", a.CritPath)
	}
	want := []Segment{
		{Cluster: 0, From: 0, To: 0, Cost: 5},
		{Cluster: 1, From: 1, To: 2, Cost: 21},
	}
	if len(a.CritSegments) != len(want) {
		t.Fatalf("CritSegments = %+v, want %+v", a.CritSegments, want)
	}
	for i, s := range want {
		if a.CritSegments[i] != s {
			t.Errorf("segment %d = %+v, want %+v", i, a.CritSegments[i], s)
		}
	}
	if a.BoundSpeedup < 1.42 || a.BoundSpeedup > 1.43 { // 37/26
		t.Errorf("BoundSpeedup = %f, want ~1.423", a.BoundSpeedup)
	}
	if out := a.String(); !strings.Contains(out, "critical path: 26 of 37") || !strings.Contains(out, "c0[0..0]:5 -> c1[1..2]:21") {
		t.Errorf("String() misses the path:\n%s", out)
	}
}

// TestAnalyzeIgnoresEdgesNoCycleWaitsFor checks that a consumption no
// cycle waits for contributes no critical-path edge: one a cluster made of
// its own event, and one at cycle 0, which reads nothing sent.
func TestAnalyzeIgnoresEdgesNoCycleWaitsFor(t *testing.T) {
	r := New()
	r.Attach(2, 3)
	for cy, v := range []uint64{5, 5, 5} {
		r.CycleCost(0, uint64(cy), v)
	}
	for cy, v := range []uint64{1, 1, 20} {
		r.CycleCost(1, uint64(cy), v)
	}
	r.Consumed(1, 1, 1, 1) // its own
	r.Consumed(1, 0, 2, 0) // at cycle 0

	a := r.Analyze()
	if a.CritPath != 22 { // within-c1 chain only
		t.Errorf("CritPath = %d, want 22 (neither edge may count)", a.CritPath)
	}
}
