package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilObserverIsSafe exercises every public entry point on a nil
// Observer and nil instruments: the disabled path must be a no-op, not a
// panic — the kernel relies on this for its one-branch-when-off cost.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Span(0, "s", o.Start())
	o.Instant(0, "i")
	o.Count(0, "c", 1)
	o.Snapshot()
	if ev, dropped := o.Events(); ev != nil || dropped != 0 {
		t.Fatalf("nil observer has events: %v %d", ev, dropped)
	}
	if err := o.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := o.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	_ = o.Report()

	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.SampleFunc("x", "", func() float64 { return 0 })
	if s := r.Snapshot(); len(s.Samples) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %+v", s)
	}
}

func TestCounterAndGauge(t *testing.T) {
	o := New(Options{})
	reg := o.Registry()

	c := reg.Counter("evt_total", "events", L("cluster", 0))
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	// Idempotent registration returns the same instrument.
	if again := reg.Counter("evt_total", "events", L("cluster", 0)); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := reg.Gauge("depth", "", L("cluster", 1))
	g.Set(7)
	g.Set(-2)
	if got := g.Load(); got != -2 {
		t.Fatalf("gauge = %d, want -2", got)
	}
	if again := reg.Gauge("depth", "", L("cluster", 1)); again != g {
		t.Fatal("re-registration returned a different gauge")
	}
	if other := reg.Gauge("depth", "", L("cluster", 2)); other == g || other.Load() != 0 {
		t.Fatal("another label set shares the gauge")
	}

	snap := reg.Snapshot()
	if v, ok := snap.Get("evt_total", `{cluster="0"}`); !ok || v != 4 {
		t.Fatalf("snapshot counter = %v (%v), want 4", v, ok)
	}
	if v, ok := snap.Get("depth", `{cluster="1"}`); !ok || v != -2 {
		t.Fatalf("snapshot gauge = %v (%v), want -2", v, ok)
	}
	if len(snap.Families) != 2 || snap.Families[0].Kind != KindGauge || snap.Families[1].Kind != KindCounter ||
		len(snap.Families[0].Samples) != 2 {
		t.Fatalf("families %+v: want depth (gauge, two samples) and evt_total (counter)", snap.Families)
	}
}

// TestSnapshotDeterministic asserts that two registries populated with
// the same instruments in different orders produce identical snapshots —
// the property the golden metrics tests in the kernel rely on.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(reverse bool) Snapshot {
		o := New(Options{})
		reg := o.Registry()
		names := []string{"a_total", "b_total", "c_total"}
		if reverse {
			names = []string{"c_total", "b_total", "a_total"}
		}
		for i, n := range names {
			reg.Counter(n, "help", L("cluster", i%2)).Add(uint64(len(n)))
		}
		reg.SampleFunc("gvt", "", func() float64 { return 42 })
		return reg.Snapshot()
	}
	a, b := build(false), build(true)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i].Name != b.Samples[i].Name || a.Samples[i].Labels != b.Samples[i].Labels {
			t.Fatalf("sample %d identity differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if v, ok := a.Get("gvt", ""); !ok || v != 42 {
		t.Fatalf("Get(gvt) = %v %v", v, ok)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	o := New(Options{TraceCapacity: 8})
	for i := 0; i < 20; i++ {
		o.Count(TrackKernel, "n", float64(i))
	}
	events, dropped := o.Events()
	if len(events) != 8 {
		t.Fatalf("retained %d events, want 8", len(events))
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	// Oldest retained first: values 12..19.
	for i, e := range events {
		if got := e.Args[0].Val; got != float64(12+i) {
			t.Fatalf("event %d value = %v, want %d", i, got, 12+i)
		}
	}
}

func TestSpanAndInstant(t *testing.T) {
	o := New(Options{})
	t0 := o.Start()
	time.Sleep(time.Millisecond)
	o.Span(2, "rollback", t0, Arg{Key: "depth", Val: 3})
	o.Instant(TrackComm, "stall", Arg{Key: "link", Val: 1})
	events, _ := o.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	sp := events[0]
	if sp.Phase != PhaseSpan || sp.Name != "rollback" || sp.Track != 2 {
		t.Fatalf("span event: %+v", sp)
	}
	if sp.Dur <= 0 {
		t.Fatalf("span duration %d, want > 0", sp.Dur)
	}
	if sp.Args[0].Key != "depth" || sp.Args[0].Val != 3 {
		t.Fatalf("span args: %+v", sp.Args)
	}
	if events[1].Phase != PhaseInstant || events[1].Track != TrackComm {
		t.Fatalf("instant event: %+v", events[1])
	}
}

// TestConcurrentUse hammers the registry and tracer from many goroutines;
// run under -race this is the data-race guard for the whole layer.
func TestConcurrentUse(t *testing.T) {
	o := New(Options{TraceCapacity: 256})
	c := o.Registry().Counter("n_total", "")
	d := o.Registry().Gauge("d", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				d.Set(int64(i % 128))
				o.Instant(int32(g), "tick")
				if i%100 == 0 {
					o.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Load(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
}

func TestLabelsSortedAndRendered(t *testing.T) {
	a := renderLabels([]Label{{Key: "z", Value: "1"}, {Key: "a", Value: "2"}})
	b := renderLabels([]Label{{Key: "a", Value: "2"}, {Key: "z", Value: "1"}})
	if a != b {
		t.Fatalf("label order leaks into identity: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, `{a="2"`) {
		t.Fatalf("labels not sorted: %q", a)
	}
}
