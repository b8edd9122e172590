package obs_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/comm/nettrans"
	"repro/internal/obs"
	"repro/internal/timewarp"
)

// The wire image of the two obs types the distributed runtime federates —
// a registry Snapshot (FrameMetrics) and a batch of trace Events
// (FrameTrace). The codec is the control plane's (internal/timewarp, on
// nettrans.Dec: obs itself holds no wire code); these tests stay beside
// the types they pin, in an external test package because timewarp
// imports obs.

// testSnapshot builds a registry with every instrument kind and returns
// its snapshot.
func testSnapshot() obs.Snapshot {
	o := obs.New(obs.Options{})
	reg := o.Registry()
	reg.Counter("tw_events_total", "gate evaluations", obs.L("cluster", 0)).Add(42)
	reg.Counter("tw_events_total", "gate evaluations", obs.L("cluster", 1)).Add(7)
	reg.Gauge("tw_gvt", "global virtual time").Set(19)
	h := reg.Histogram("tw_rollback_depth", "rollback depth in cycles", []float64{1, 4, 16})
	h.Observe(2)
	h.Observe(100)
	reg.SampleFunc("tw_queue_len", "pending", func() float64 { return 3 })
	s := reg.Snapshot()
	s.At = 1234 * time.Microsecond
	return s
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	want := testSnapshot()
	blob := timewarp.AppendSnapshot(nil, want)
	got, err := timewarp.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestSnapshotCodecEmpty(t *testing.T) {
	blob := timewarp.AppendSnapshot(nil, obs.Snapshot{})
	got, err := timewarp.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got.Families) != 0 || len(got.Samples) != 0 {
		t.Fatalf("empty snapshot decoded non-empty: %+v", got)
	}
}

// TestSnapshotCodecTruncation demands every strict prefix of a valid
// encoding fail to decode — the hostile-input bar all wire payloads in
// this repo meet.
func TestSnapshotCodecTruncation(t *testing.T) {
	blob := timewarp.AppendSnapshot(nil, testSnapshot())
	for n := 0; n < len(blob); n++ {
		if _, err := timewarp.DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(blob))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := timewarp.DecodeSnapshot(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("snapshot with trailing byte decoded without error")
	}
}

// versionByte copies the version byte a valid encoding starts with, the
// prefix of every hand-built hostile payload below.
func versionByte(valid []byte) []byte { return append([]byte(nil), valid[0]) }

func TestSnapshotCodecHostile(t *testing.T) {
	empty := timewarp.AppendSnapshot(nil, obs.Snapshot{})
	cases := map[string][]byte{
		"bad version":    {99},
		"huge families":  empty[:13], // cut before family count...
		"garbage counts": append(append([]byte(nil), empty...), 0xFF, 0xFF),
	}
	// A snapshot claiming 2^20 families in a tiny payload.
	huge := versionByte(empty)
	huge = nettrans.AppendU64(huge, 0)
	huge = nettrans.AppendU32(huge, 1<<20)
	cases["family count overflow"] = huge
	for name, blob := range cases {
		if _, err := timewarp.DecodeSnapshot(blob); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestTraceBatchRoundTrip(t *testing.T) {
	want := obs.FixtureEvents()
	blob := timewarp.AppendTraceEvents(nil, want, 17)
	got, dropped, err := timewarp.DecodeTraceEvents(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dropped != 17 {
		t.Fatalf("dropped = %d, want 17", dropped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestTraceBatchTruncation(t *testing.T) {
	blob := timewarp.AppendTraceEvents(nil, obs.FixtureEvents(), 0)
	for n := 0; n < len(blob); n++ {
		if _, _, err := timewarp.DecodeTraceEvents(blob[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, _, err := timewarp.DecodeTraceEvents(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("batch with trailing byte decoded without error")
	}
	// A batch claiming 2^20 events in a tiny payload must be rejected
	// before allocation.
	huge := versionByte(blob)
	huge = nettrans.AppendU64(huge, 0)
	huge = nettrans.AppendU32(huge, 1<<20)
	if _, _, err := timewarp.DecodeTraceEvents(huge); err == nil {
		t.Fatal("event-count overflow decoded without error")
	}
	// So must an event claiming more args than an Event holds.
	over := timewarp.AppendTraceEvents(nil, []obs.Event{{Name: "e", Phase: obs.PhaseInstant}}, 0)
	over[len(over)-1] = byte(len(obs.Event{}.Args) + 1)
	if _, _, err := timewarp.DecodeTraceEvents(over); err == nil {
		t.Fatal("arg-count overflow decoded without error")
	}
}

func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(timewarp.AppendSnapshot(nil, testSnapshot()))
	f.Add(timewarp.AppendSnapshot(nil, obs.Snapshot{}))
	f.Add(versionByte(timewarp.AppendSnapshot(nil, obs.Snapshot{})))
	f.Fuzz(func(t *testing.T, p []byte) {
		s, err := timewarp.DecodeSnapshot(p)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same value.
		again, err := timewarp.DecodeSnapshot(timewarp.AppendSnapshot(nil, s))
		if err != nil {
			t.Fatalf("re-decode of valid snapshot failed: %v", err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("re-encode not stable:\n%+v\nvs\n%+v", s, again)
		}
	})
}

func FuzzDecodeTraceEvents(f *testing.F) {
	f.Add(timewarp.AppendTraceEvents(nil, obs.FixtureEvents(), 5))
	f.Add(timewarp.AppendTraceEvents(nil, nil, 0))
	f.Fuzz(func(t *testing.T, p []byte) {
		ev, dropped, err := timewarp.DecodeTraceEvents(p)
		if err != nil {
			return
		}
		again, d2, err := timewarp.DecodeTraceEvents(timewarp.AppendTraceEvents(nil, ev, dropped))
		if err != nil {
			t.Fatalf("re-decode of valid batch failed: %v", err)
		}
		if d2 != dropped || !reflect.DeepEqual(ev, again) {
			t.Fatal("re-encode not stable")
		}
	})
}
