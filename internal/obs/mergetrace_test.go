package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FixtureEvents hands testEvents to the external wire tests
// (fedwire_test.go, package obs_test).
var FixtureEvents = testEvents

func testEvents() []Event {
	return []Event{
		{Ts: 10, Dur: 5, Track: 0, Phase: PhaseSpan, Name: "advance",
			Args: [maxArgs]Arg{{Key: "cycle", Val: 3}}},
		{Ts: 12, Track: TrackKernel, Phase: PhaseInstant, Name: "gvt"},
		{Ts: 14, Track: 1, Phase: PhaseCounter, Name: "queue",
			Args: [maxArgs]Arg{{Key: "value", Val: 7}}},
		{Ts: 15, Track: 0, Phase: PhaseFlowStart, Name: "cascade", ID: 99,
			Args: [maxArgs]Arg{{Key: "src", Val: 0}, {Key: "depth", Val: 2}}},
		{Ts: 16, Track: 1, Phase: PhaseFlowStep, Name: "cascade", ID: 99},
	}
}

// TestDrainSince exercises the incremental streaming cursor, including
// ring overwrite between drains.
func TestDrainSince(t *testing.T) {
	o := New(Options{TraceCapacity: 4})
	for i := 0; i < 3; i++ {
		o.Instant(0, "a")
	}
	ev, next, dropped := o.EventsSince(0)
	if len(ev) != 3 || next != 3 || dropped != 0 {
		t.Fatalf("first drain: %d events, next=%d, dropped=%d", len(ev), next, dropped)
	}
	// Push 6 more: ring capacity 4 means pushes 3..8 leave 5..8 retained;
	// the cursor at 3 has lost events 3 and 4.
	for i := 0; i < 6; i++ {
		o.Instant(0, "b")
	}
	ev, next, dropped = o.EventsSince(next)
	if len(ev) != 4 || next != 9 || dropped != 2 {
		t.Fatalf("second drain: %d events, next=%d, dropped=%d (want 4, 9, 2)", len(ev), next, dropped)
	}
	// Nothing new: empty drain, no drops, cursor unchanged.
	ev, next, dropped = o.EventsSince(next)
	if len(ev) != 0 || next != 9 || dropped != 0 {
		t.Fatalf("idle drain: %d events, next=%d, dropped=%d", len(ev), next, dropped)
	}
	// A cursor from the future clamps instead of underflowing.
	ev, _, dropped = o.EventsSince(1 << 60)
	if len(ev) != 0 || dropped != 0 {
		t.Fatalf("future cursor: %d events, dropped=%d", len(ev), dropped)
	}
}

// TestMergedChromeTrace merges a coordinator source and two rebased
// worker sources and demands the result decode with per-process tracks
// and rebased timestamps.
func TestMergedChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMergedChromeTrace(&buf, []TraceSource{
		{Name: "coordinator", Events: []Event{
			{Ts: 50, Dur: 10, Track: TrackKernel, Phase: PhaseSpan, Name: "gvt_round"},
		}},
		{Name: "worker 0", OffsetMicros: 100, Dropped: 3, Events: testEvents()},
		{Name: "worker 1", OffsetMicros: -1000, Events: []Event{
			{Ts: 10, Track: 0, Phase: PhaseInstant, Name: "early"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := DecodeChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged trace does not round-trip: %v", err)
	}
	if dt.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dt.Dropped)
	}
	wantProc := map[int]string{1: "coordinator", 2: "worker 0", 3: "worker 1"}
	if !reflect.DeepEqual(dt.ProcessNames, wantProc) {
		t.Fatalf("process names = %v, want %v", dt.ProcessNames, wantProc)
	}
	// Worker 0's events are shifted by +100µs onto pid 2.
	var sawShifted bool
	for _, e := range dt.Events {
		if e.Pid == 2 && e.Name == "advance" {
			sawShifted = true
			if e.Ts != 110 {
				t.Fatalf("worker 0 span Ts = %d, want rebased 110", e.Ts)
			}
		}
		if e.Pid == 3 && e.Ts < 0 {
			t.Fatalf("negative rebased timestamp %d survived clamping", e.Ts)
		}
	}
	if !sawShifted {
		t.Fatal("worker 0 span missing from merged trace")
	}
	// The flow chain survives the merge.
	if chain := dt.FlowChain(99); len(chain) != 2 {
		t.Fatalf("flow chain length = %d, want 2", len(chain))
	}
	// Coordinator events keep their own clock.
	spans := dt.SpansNamed("gvt_round")
	if len(spans) != 1 || spans[0].Ts != 50 || spans[0].Pid != 1 {
		t.Fatalf("coordinator span = %+v", spans)
	}
}

// TestMergedChromeTraceEmpty writes a merge of zero sources and demands
// a valid, decodable file.
func TestMergedChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	dt, err := DecodeChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.Events) != 0 {
		t.Fatalf("empty merge decoded %d events", len(dt.Events))
	}
}
