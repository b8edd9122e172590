package obs_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm/nettrans"
	"repro/internal/obs"
	"repro/internal/timewarp"
)

// The wire image of the obs type the distributed runtime federates — a
// batch of trace Events (the tail of every FrameReport). The codec is the
// control plane's (internal/timewarp, on nettrans.Dec: obs itself holds no
// wire code); these tests stay beside the type they pin, in an external
// test package because timewarp imports obs.

// versionByte copies the version byte a valid encoding starts with, the
// prefix of every hand-built hostile payload below.
func versionByte(valid []byte) []byte { return append([]byte(nil), valid[0]) }

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

// traceBatchV1 encodes events in the trace batch's version 1 layout,
// which carried an 8-byte event ID after each event's phase byte.
func traceBatchV1(events []obs.Event, dropped uint64) []byte {
	dst := nettrans.AppendU8(nil, 1)
	dst = nettrans.AppendU64(dst, dropped)
	dst = nettrans.AppendU32(dst, uint32(len(events)))
	for _, e := range events {
		dst = nettrans.AppendI64(dst, e.Ts)
		dst = nettrans.AppendI64(dst, e.Dur)
		dst = nettrans.AppendU32(dst, uint32(e.Track))
		dst = nettrans.AppendU8(dst, e.Phase)
		dst = nettrans.AppendU64(dst, 0) // the event ID
		dst = nettrans.AppendStr(dst, e.Name)
		n := byte(0)
		for _, a := range e.Args {
			if a.Key != "" {
				n++
			}
		}
		dst = nettrans.AppendU8(dst, n)
		for _, a := range e.Args {
			if a.Key != "" {
				dst = nettrans.AppendStr(dst, a.Key)
				dst = nettrans.AppendU64(dst, math.Float64bits(a.Val))
			}
		}
	}
	return dst
}

// TestTraceBatchRefusesVersion1 holds the decoder to its version byte: a
// batch of the layout that shipped an event ID is an error, not a batch
// read eight bytes askew.
func TestTraceBatchRefusesVersion1(t *testing.T) {
	_, _, err := timewarp.DecodeTraceEvents(traceBatchV1(obs.FixtureEvents(), 3))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 batch: err = %v, want a version error", err)
	}
}

func FuzzDecodeTraceEvents(f *testing.F) {
	f.Add(timewarp.AppendTraceEvents(nil, obs.FixtureEvents(), 5))
	f.Add(timewarp.AppendTraceEvents(nil, nil, 0))
	f.Add(traceBatchV1(obs.FixtureEvents(), 5))
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
