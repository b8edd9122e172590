package obs

import (
	"reflect"
	"strings"
	"testing"
)

func span(track int32, name string, ts, dur int64) Event {
	return Event{Track: track, Name: name, Ts: ts, Dur: dur, Phase: PhaseSpan}
}

func findPhase(t *testing.T, rows []PhaseStat, track int32, phase string) PhaseStat {
	t.Helper()
	for _, p := range rows {
		if p.Track == track && p.Phase == phase {
			return p
		}
	}
	t.Fatalf("phase (%d, %q) not in %v", track, phase, rows)
	return PhaseStat{}
}

func TestPhasesNestingSelfTime(t *testing.T) {
	// sim [0,100) encloses rollback [10,40) and checkpoint [50,70):
	// sim's self time is its duration minus the enclosed children.
	rows := Phases([]Event{
		span(0, "sim", 0, 100),
		span(0, "rollback", 10, 30),
		span(0, "checkpoint", 50, 20),
		{Track: 0, Name: "noise", Phase: PhaseInstant, Ts: 5}, // non-span: ignored
	})
	if p := findPhase(t, rows, 0, "sim"); p.SelfUS != 50 || p.TotalUS != 100 || p.Count != 1 {
		t.Fatalf("sim phase = %+v", p)
	}
	if got := findPhase(t, rows, 0, "rollback").SelfUS; got != 30 {
		t.Fatalf("rollback self = %d, want 30", got)
	}
	if got := findPhase(t, rows, 0, "checkpoint").SelfUS; got != 20 {
		t.Fatalf("checkpoint self = %d, want 20", got)
	}
	// A track's phase self times sum to its outermost span's duration.
	var total int64
	for _, p := range rows {
		total += p.SelfUS
	}
	if total != 100 {
		t.Fatalf("self-time sum = %d, want 100", total)
	}
}

func TestPhasesDeterministicAcrossOrder(t *testing.T) {
	a := []Event{
		span(TrackKernel, "watcher", 0, 50),
		span(1, "sim", 0, 80),
		span(1, "rollback", 20, 10),
		span(1, "rollback", 60, 5),
	}
	b := []Event{a[2], a[0], a[3], a[1]} // same multiset, different arrival order
	if pa, pb := Phases(a), Phases(b); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("order-dependent table:\n%v\nvs\n%v", pa, pb)
	}
}

func TestPhasesOverlappingNotNested(t *testing.T) {
	// Concurrent emitters on a shared track: [0,60) and [40,100) overlap
	// without nesting — each must be charged its own full duration.
	rows := Phases([]Event{
		span(2, "a", 0, 60),
		span(2, "b", 40, 60),
	})
	if got := findPhase(t, rows, 2, "a").SelfUS; got != 60 {
		t.Fatalf("a self = %d, want 60", got)
	}
	if got := findPhase(t, rows, 2, "b").SelfUS; got != 60 {
		t.Fatalf("b self = %d, want 60", got)
	}
}

// TestTrackLabel pins the one track namer, so a trace's thread names, the
// pprof cluster label and the report's phase rows agree on what a track is
// called.
func TestTrackLabel(t *testing.T) {
	for track, want := range map[int32]string{
		TrackKernel:    "kernel",
		TrackPartition: "partition",
		TrackCampaign:  "campaign",
		0:              "cluster 0",
		7:              "cluster 7",
	} {
		if got := TrackName(track); got != want {
			t.Fatalf("track %d: TrackName %q, want %q", track, got, want)
		}
	}
}

// TestReportPhaseTable: the report's time attribution is the phase
// table, so a nested span's time is counted once — the per-track sum of
// span durations it replaced counted it twice.
func TestReportPhaseTable(t *testing.T) {
	o := New(Options{})
	for _, e := range []Event{
		span(0, "sim", 0, 100),
		span(0, "rollback", 10, 30),
		span(TrackKernel, "timewarp.run", 0, 120),
	} {
		o.tr.Push(e)
	}
	rep := o.Report()
	for _, want := range []string{
		"  cluster 0           2 events\n",
		"phases (self = span time minus the spans it encloses):\n",
		"  cluster 0      sim                         1           70          100\n",
		"  cluster 0      rollback                    1           30           30\n",
		"  kernel         timewarp.run                1          120          120\n",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
	// Cluster rows precede the kernel's, and a track's widest self first.
	if i, j, k := strings.Index(rep, "sim "), strings.Index(rep, "rollback "), strings.Index(rep, "timewarp.run"); !(i < j && j < k) {
		t.Errorf("phase rows out of order:\n%s", rep)
	}
	if strings.Contains(rep, "in spans") {
		t.Errorf("report still sums span durations per track:\n%s", rep)
	}
}
