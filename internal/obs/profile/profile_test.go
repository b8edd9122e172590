package profile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

func span(track int32, name string, ts, dur int64) obs.Event {
	return obs.Event{Track: track, Name: name, Ts: ts, Dur: dur, Phase: obs.PhaseSpan}
}

func findStack(t *testing.T, tab *Table, path string) StackStat {
	t.Helper()
	for _, s := range tab.Stacks {
		if s.Stack == path {
			return s
		}
	}
	t.Fatalf("stack %q not in %v", path, tab.Stacks)
	return StackStat{}
}

func findPhase(t *testing.T, tab *Table, track int32, phase string) PhaseStat {
	t.Helper()
	for _, p := range tab.Phases {
		if p.Track == track && p.Phase == phase {
			return p
		}
	}
	t.Fatalf("phase (%d, %q) not in %v", track, phase, tab.Phases)
	return PhaseStat{}
}

func TestBuildNestingSelfTime(t *testing.T) {
	// sim [0,100) encloses rollback [10,40) and checkpoint [50,70):
	// sim's self time is its duration minus the enclosed children.
	events := []obs.Event{
		span(0, "sim", 0, 100),
		span(0, "rollback", 10, 30),
		span(0, "checkpoint", 50, 20),
		{Track: 0, Name: "noise", Phase: obs.PhaseInstant, Ts: 5}, // non-span: ignored
	}
	tab := Build(events)
	if got := findStack(t, tab, "cluster 0;sim").SelfUS; got != 50 {
		t.Fatalf("sim self = %d, want 50", got)
	}
	if got := findStack(t, tab, "cluster 0;sim;rollback").SelfUS; got != 30 {
		t.Fatalf("rollback self = %d, want 30", got)
	}
	if got := findStack(t, tab, "cluster 0;sim;checkpoint").SelfUS; got != 20 {
		t.Fatalf("checkpoint self = %d, want 20", got)
	}
	p := findPhase(t, tab, 0, "sim")
	if p.SelfUS != 50 || p.TotalUS != 100 || p.Count != 1 {
		t.Fatalf("sim phase = %+v", p)
	}
	// Self times across every stack sum to the outermost wall time.
	var total int64
	for _, s := range tab.Stacks {
		total += s.SelfUS
	}
	if total != 100 {
		t.Fatalf("self-time sum = %d, want 100", total)
	}
}

func TestBuildDeterministicAcrossOrder(t *testing.T) {
	a := []obs.Event{
		span(obs.TrackKernel, "watcher", 0, 50),
		span(1, "sim", 0, 80),
		span(1, "rollback", 20, 10),
	}
	b := []obs.Event{a[2], a[0], a[1]} // same multiset, different arrival order
	fa := Build(a).AppendFolded(nil, "")
	fb := Build(b).AppendFolded(nil, "")
	if !bytes.Equal(fa, fb) {
		t.Fatalf("order-dependent output:\n%s\nvs\n%s", fa, fb)
	}
}

func TestBuildOverlappingNotNested(t *testing.T) {
	// Concurrent emitters on a shared track: [0,60) and [40,100) overlap
	// without nesting — each must be charged its own full duration.
	tab := Build([]obs.Event{
		span(2, "a", 0, 60),
		span(2, "b", 40, 60),
	})
	if got := findPhase(t, tab, 2, "a").SelfUS; got != 60 {
		t.Fatalf("a self = %d, want 60", got)
	}
	if got := findPhase(t, tab, 2, "b").SelfUS; got != 60 {
		t.Fatalf("b self = %d, want 60", got)
	}
}

func TestFoldedRoundTrip(t *testing.T) {
	tab := Build([]obs.Event{
		span(0, "sim", 0, 100),
		span(0, "rollback", 10, 30),
		span(obs.TrackKernel, "watcher", 0, 7),
	})
	folded := tab.AppendFolded(nil, "worker 1")
	stacks, err := ParseFolded(folded)
	if err != nil {
		t.Fatalf("ParseFolded(%q): %v", folded, err)
	}
	if len(stacks) != len(tab.Stacks) {
		t.Fatalf("round-trip lost stacks: %d -> %d", len(tab.Stacks), len(stacks))
	}
	for _, s := range stacks {
		if !strings.HasPrefix(s.Stack, "worker 1;") {
			t.Fatalf("prefix missing on %q", s.Stack)
		}
	}
	if n, err := ValidateFolded(folded); err != nil || n != len(tab.Stacks) {
		t.Fatalf("ValidateFolded = (%d, %v)", n, err)
	}
}

func TestParseFoldedRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"frame-without-value\n",
		"stack 12x\n",
		"stack -3\n",
		"a;;b 10\n",
		";lead 4\n",
		"trail; 4\n",
	} {
		if _, err := ParseFolded([]byte(bad)); err == nil {
			t.Fatalf("ParseFolded(%q) accepted garbage", bad)
		}
	}
	// Blank lines and empty input parse (to zero stacks)...
	if ss, err := ParseFolded([]byte("\n\n")); err != nil || len(ss) != 0 {
		t.Fatalf("blank input = (%v, %v)", ss, err)
	}
	// ...but ValidateFolded requires at least one stack.
	if _, err := ValidateFolded(nil); err == nil {
		t.Fatal("ValidateFolded accepted an empty artifact")
	}
}

func TestMergeFolded(t *testing.T) {
	merged := MergeFolded(nil, []FoldedSource{
		{Prefix: "worker 0", Stacks: []StackStat{{Stack: "cluster 0;sim", SelfUS: 10}}},
		{Prefix: "worker 1", Stacks: []StackStat{{Stack: "cluster 1;sim", SelfUS: 20}}},
		{Prefix: "worker 1", Stacks: []StackStat{{Stack: "cluster 1;sim", SelfUS: 5}}}, // same path: summed
		{Stacks: []StackStat{{Stack: "coordinator;round", SelfUS: 3}}},                 // no prefix
	})
	want := "coordinator;round 3\nworker 0;cluster 0;sim 10\nworker 1;cluster 1;sim 25\n"
	if string(merged) != want {
		t.Fatalf("merged:\n%s\nwant:\n%s", merged, want)
	}
	if _, err := ValidateFolded(merged); err != nil {
		t.Fatalf("merged output invalid: %v", err)
	}
}

// TestTrackLabel pins the root frame of a track's stacks to the one
// track namer, so a flame, a trace's thread names and the pprof cluster
// label agree on what a track is called.
func TestTrackLabel(t *testing.T) {
	for track, want := range map[int32]string{
		obs.TrackKernel:    "kernel",
		obs.TrackPartition: "partition",
		obs.TrackCampaign:  "campaign",
		0:                  "cluster 0",
		7:                  "cluster 7",
	} {
		tab := Build([]obs.Event{{Track: track, Phase: obs.PhaseSpan, Name: "p", Dur: 1}})
		if got := tab.Stacks[0].Stack; got != want+";p" || want != obs.TrackName(track) {
			t.Fatalf("track %d: stack %q, want root %q (TrackName %q)", track, got, want, obs.TrackName(track))
		}
	}
}
