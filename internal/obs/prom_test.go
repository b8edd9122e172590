package obs

import (
	"bytes"
	"testing"
)

// TestPrometheusGolden pins the text exposition format byte for byte:
// HELP/TYPE blocks in name order, samples sorted, histograms expanded
// into cumulative buckets in ascending numeric bound order (+Inf last)
// with _sum and _count — also where the bounds sort the other way as text
// ("16" < "2") and a family has several label sets.
func TestPrometheusGolden(t *testing.T) {
	o := New(Options{})
	reg := o.Registry()
	reg.Counter("tw_events_total", "gate evaluations", L("cluster", 1)).Add(10)
	reg.Counter("tw_events_total", "gate evaluations", L("cluster", 0)).Add(20)
	reg.Gauge("tw_queue_len", "pending remote events", L("cluster", 0)).Set(3)
	reg.SampleFunc("tw_gvt", "global virtual time", func() float64 { return 7 })
	h := reg.Histogram("tw_rollback_depth", "rollback depth in cycles", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	for c, vs := range [][]float64{{1, 20}, {5}} {
		bh := reg.Histogram("tw_batch_events", "events per batch", []float64{2, 16}, L("cluster", c))
		for _, v := range vs {
			bh.Observe(v)
		}
	}

	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP tw_batch_events events per batch
# TYPE tw_batch_events histogram
tw_batch_events_bucket{cluster="0",le="2"} 1
tw_batch_events_bucket{cluster="0",le="16"} 1
tw_batch_events_bucket{cluster="0",le="+Inf"} 2
tw_batch_events_bucket{cluster="1",le="2"} 0
tw_batch_events_bucket{cluster="1",le="16"} 1
tw_batch_events_bucket{cluster="1",le="+Inf"} 1
tw_batch_events_count{cluster="0"} 2
tw_batch_events_count{cluster="1"} 1
tw_batch_events_sum{cluster="0"} 21
tw_batch_events_sum{cluster="1"} 5
# HELP tw_events_total gate evaluations
# TYPE tw_events_total counter
tw_events_total{cluster="0"} 20
tw_events_total{cluster="1"} 10
# HELP tw_gvt global virtual time
# TYPE tw_gvt gauge
tw_gvt 7
# HELP tw_queue_len pending remote events
# TYPE tw_queue_len gauge
tw_queue_len{cluster="0"} 3
# HELP tw_rollback_depth rollback depth in cycles
# TYPE tw_rollback_depth histogram
tw_rollback_depth_bucket{le="1"} 1
tw_rollback_depth_bucket{le="2"} 1
tw_rollback_depth_bucket{le="4"} 2
tw_rollback_depth_bucket{le="+Inf"} 3
tw_rollback_depth_count 3
tw_rollback_depth_sum 13
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus dump mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministic renders the same registry twice and
// demands byte-identical output.
func TestPrometheusDeterministic(t *testing.T) {
	o := New(Options{})
	reg := o.Registry()
	for i := 0; i < 5; i++ {
		reg.Counter("c_total", "h", L("i", i)).Add(uint64(i))
	}
	var a, b bytes.Buffer
	if err := o.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := o.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic dumps:\n%s\nvs\n%s", a.String(), b.String())
	}
}
