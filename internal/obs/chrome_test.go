package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestChromeTraceRoundTrip writes a small trace and decodes it back,
// asserting the structural properties the kernel's validation test also
// checks: per-track thread names, span fields, counter samples.
func TestChromeTraceRoundTrip(t *testing.T) {
	o := New(Options{})
	t0 := o.Start()
	time.Sleep(200 * time.Microsecond)
	o.Span(0, "rollback", t0, Arg{Key: "depth", Val: 4}, Arg{Key: "to_cycle", Val: 10})
	o.Span(1, "rollback", t0)
	o.Instant(TrackComm, "stall")
	o.Count(TrackKernel, "gvt", 5)
	o.Count(TrackKernel, "gvt", 9)

	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Tracks: clusters 0 and 1, comm, kernel — all named.
	wantNames := map[int]string{
		0:                      "cluster 0",
		1:                      "cluster 1",
		ChromeTid(TrackComm):   "comm",
		ChromeTid(TrackKernel): "kernel",
	}
	for tid, want := range wantNames {
		if got := d.ThreadNames[tid]; got != want {
			t.Fatalf("tid %d name = %q, want %q (all: %v)", tid, got, want, d.ThreadNames)
		}
	}
	// One unnamed source under pid 1: a single-process trace carries no
	// process metadata.
	if len(d.ProcessNames) != 0 {
		t.Fatalf("single-process trace names processes: %v", d.ProcessNames)
	}
	for _, e := range d.Events {
		if e.Pid != 1 {
			t.Fatalf("event %q on pid %d, want 1", e.Name, e.Pid)
		}
	}

	spans := d.SpansNamed("rollback")
	if len(spans) != 2 {
		t.Fatalf("rollback spans = %d, want 2", len(spans))
	}
	if spans[0].Dur <= 0 {
		t.Fatalf("span dur = %d, want > 0", spans[0].Dur)
	}
	if spans[0].Args["depth"] != 4 || spans[0].Args["to_cycle"] != 10 {
		t.Fatalf("span args: %+v", spans[0].Args)
	}

	gvt := d.CounterSeries("gvt")
	if len(gvt) != 2 || gvt[0] != 5 || gvt[1] != 9 {
		t.Fatalf("gvt series: %v", gvt)
	}
}

func TestChromeTraceEmptyObserver(t *testing.T) {
	o := New(Options{})
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	d, err := DecodeChromeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 0 {
		t.Fatalf("events in empty trace: %+v", d.Events)
	}
	if !strings.Contains(text, "traceEvents") {
		t.Fatalf("missing container key: %s", text)
	}
}

func TestChromeTidMapping(t *testing.T) {
	cases := map[int32]int{
		0: 0, 3: 3,
		TrackKernel:    1000,
		TrackPartition: 1001,
		TrackCampaign:  1002,
		TrackComm:      1003,
	}
	for track, want := range cases {
		if got := ChromeTid(track); got != want {
			t.Fatalf("ChromeTid(%d) = %d, want %d", track, got, want)
		}
	}
}
