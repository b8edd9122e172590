package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestFederatedMergeDeterministic installs two external worker snapshots
// in both arrival orders and demands byte-identical Prometheus output —
// the satellite fix for arrival-order-dependent merged dumps.
func TestFederatedMergeDeterministic(t *testing.T) {
	w0 := func() Snapshot {
		o := New(Options{})
		o.Registry().Counter("tw_events_total", "gate evaluations").Add(10)
		o.Registry().Gauge("tw_gvt", "global virtual time").Set(5)
		return o.Registry().Snapshot()
	}()
	w1 := func() Snapshot {
		o := New(Options{})
		o.Registry().Counter("tw_events_total", "gate evaluations").Add(20)
		o.Registry().Gauge("tw_gvt", "global virtual time").Set(6)
		return o.Registry().Snapshot()
	}()

	render := func(install func(r *Registry)) string {
		o := New(Options{})
		o.Registry().Gauge("dist_round", "GVT round").Set(3)
		install(o.Registry())
		var buf bytes.Buffer
		if err := o.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	a := render(func(r *Registry) {
		r.SetExternal("worker", "0", w0)
		r.SetExternal("worker", "1", w1)
	})
	b := render(func(r *Registry) {
		r.SetExternal("worker", "1", w1)
		r.SetExternal("worker", "0", w0)
	})
	if a != b {
		t.Fatalf("merged dump depends on arrival order:\n--- 0 then 1 ---\n%s--- 1 then 0 ---\n%s", a, b)
	}
	for _, want := range []string{
		`tw_events_total{worker="0"} 10`,
		`tw_events_total{worker="1"} 20`,
		`tw_gvt{worker="0"} 5`,
		`tw_gvt{worker="1"} 6`,
		"dist_round 3",
		"# TYPE tw_events_total counter",
		"# TYPE tw_gvt gauge",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("merged dump missing %q:\n%s", want, a)
		}
	}
	if _, err := ValidatePrometheusText([]byte(a)); err != nil {
		t.Fatalf("merged dump fails validation: %v\n%s", err, a)
	}
}

// TestFederatedMergeGolden pins the merged exposition byte for byte: a
// coordinator gauge plus two workers' counters and a histogram, with the
// worker label inserted in key-sorted position and buckets in numeric
// order. (That a snapshot survives the wire unchanged is
// TestSnapshotCodecRoundTrip, fedwire_test.go.)
func TestFederatedMergeGolden(t *testing.T) {
	worker := func(n uint64) Snapshot {
		o := New(Options{})
		o.Registry().Counter("test_frames_total", "frames sent", L("peer", 1)).Add(n)
		h := o.Registry().Histogram("tw_rollback_depth", "rollback depth in cycles", []float64{2, 16})
		h.Observe(float64(n))
		return o.Registry().Snapshot()
	}

	o := New(Options{})
	o.Registry().Gauge("dist_round", "GVT round").Set(9)
	o.Registry().SetExternal("worker", "1", worker(20))
	o.Registry().SetExternal("worker", "0", worker(1))
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dist_round GVT round
# TYPE dist_round gauge
dist_round 9
# HELP test_frames_total frames sent
# TYPE test_frames_total counter
test_frames_total{peer="1",worker="0"} 1
test_frames_total{peer="1",worker="1"} 20
# HELP tw_rollback_depth rollback depth in cycles
# TYPE tw_rollback_depth histogram
tw_rollback_depth_bucket{le="2",worker="0"} 1
tw_rollback_depth_bucket{le="16",worker="0"} 1
tw_rollback_depth_bucket{le="+Inf",worker="0"} 1
tw_rollback_depth_bucket{le="2",worker="1"} 0
tw_rollback_depth_bucket{le="16",worker="1"} 0
tw_rollback_depth_bucket{le="+Inf",worker="1"} 1
tw_rollback_depth_count{worker="0"} 1
tw_rollback_depth_count{worker="1"} 1
tw_rollback_depth_sum{worker="0"} 1
tw_rollback_depth_sum{worker="1"} 20
`
	if got := buf.String(); got != want {
		t.Fatalf("merged golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFederatedReplace demands SetExternal with the same source replace,
// not accumulate.
func TestFederatedReplace(t *testing.T) {
	mk := func(v uint64) Snapshot {
		o := New(Options{})
		o.Registry().Counter("c_total", "h").Add(v)
		return o.Registry().Snapshot()
	}
	o := New(Options{})
	o.Registry().SetExternal("worker", "0", mk(1))
	o.Registry().SetExternal("worker", "0", mk(2))
	snap := o.Registry().Snapshot()
	v, ok := snap.Get("c_total", `{worker="0"}`)
	if !ok || v != 2 {
		t.Fatalf("got %v (present=%v), want replaced value 2; samples: %+v", v, ok, snap.Samples)
	}
	if n := len(snap.Samples); n != 1 {
		t.Fatalf("replacement accumulated: %d samples", n)
	}
}

func TestInsertLabelSorted(t *testing.T) {
	cases := []struct{ rendered, key, value, want string }{
		{"", "worker", "0", `{worker="0"}`},
		{`{peer="1"}`, "worker", "0", `{peer="1",worker="0"}`},
		{`{zz="1"}`, "worker", "0", `{worker="0",zz="1"}`},
		{`{le="+Inf",src="a b"}`, "worker", "3", `{le="+Inf",src="a b",worker="3"}`},
		{`{a="quo\"te"}`, "worker", "0", `{a="quo\"te",worker="0"}`},
	}
	for _, c := range cases {
		if got := insertLabel(c.rendered, c.key, c.value); got != c.want {
			t.Errorf("insertLabel(%q, %q, %q) = %q, want %q", c.rendered, c.key, c.value, got, c.want)
		}
	}
}
