package obs

import (
	"bytes"
	"testing"
)

// TestPrometheusGolden pins the text exposition format byte for byte:
// HELP/TYPE blocks in name order, samples sorted by name and then label
// set — also where a family has several label sets registered out of
// order — sampled funcs typed as gauges, a family without help getting
// no HELP line, and fractional values in %g.
func TestPrometheusGolden(t *testing.T) {
	o := New(Options{})
	reg := o.Registry()
	reg.Counter("tw_events_total", "gate evaluations", L("cluster", 1)).Add(10)
	reg.Counter("tw_events_total", "gate evaluations", L("cluster", 0)).Add(20)
	reg.Gauge("tw_depth", "rollback depth in cycles", L("cluster", 0)).Set(3)
	reg.SampleFunc("tw_gvt", "global virtual time", func() float64 { return 7 })
	for c, v := range []float64{2.5, 16} {
		reg.SampleFunc("tw_batch_events", "", func() float64 { return v }, L("cluster", c))
	}

	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE tw_batch_events gauge
tw_batch_events{cluster="0"} 2.5
tw_batch_events{cluster="1"} 16
# HELP tw_depth rollback depth in cycles
# TYPE tw_depth gauge
tw_depth{cluster="0"} 3
# HELP tw_events_total gate evaluations
# TYPE tw_events_total counter
tw_events_total{cluster="0"} 20
tw_events_total{cluster="1"} 10
# HELP tw_gvt global virtual time
# TYPE tw_gvt gauge
tw_gvt 7
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
