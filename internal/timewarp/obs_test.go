package timewarp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sim"
)

func socDesign(t *testing.T) *elab.Design {
	t.Helper()
	c := gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

// TestObservedRunEmitsValidChromeTrace is the acceptance check for the
// trace exporter: a chaos run of the SoC example at k=4 must produce a
// decodable Chrome trace with one named track per cluster and at least one
// blocked(senders) span on a cluster track, naming the cycle it waited
// to run.
func TestObservedRunEmitsValidChromeTrace(t *testing.T) {
	ed := socDesign(t)
	nl := ed.Netlist
	const k = 4
	const cycles = 120

	// Chaos delivery on a random partition holds watermarks with near
	// certainty; sweep a few seeds so the test does not hinge on one
	// schedule.
	for seed := int64(1); seed <= 5; seed++ {
		o := obs.New(obs.Options{})
		_, err := Run(Config{
			NL:        nl,
			GateParts: randomParts(nl, k, seed),
			K:         k,
			Vectors:   sim.RandomVectors{Seed: seed},
			Cycles:    cycles,
			Transport: comm.Chaos(comm.ChaosConfig{Seed: seed, StallEvery: 4, Obs: o}),
			Obs:       o,
		})
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		if err := o.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		d, err := obs.DecodeChromeTrace(&buf)
		if err != nil {
			t.Fatalf("trace does not decode: %v", err)
		}

		// One named track per cluster, plus the kernel track.
		for c := 0; c < k; c++ {
			want := fmt.Sprintf("cluster %d", c)
			if got := d.ThreadNames[c]; got != want {
				t.Fatalf("tid %d named %q, want %q", c, got, want)
			}
		}
		if got := d.ThreadNames[obs.ChromeTid(obs.TrackKernel)]; got != "kernel" {
			t.Fatalf("kernel track named %q", got)
		}

		spans := d.SpansNamed("blocked(senders)")
		if len(spans) == 0 {
			continue // this schedule happened never to wait; try the next seed
		}
		for _, s := range spans {
			if s.Tid < 0 || s.Tid >= k {
				t.Fatalf("wait span on non-cluster track %d", s.Tid)
			}
			if s.Args["cycle"] < 1 || s.Args["cycle"] >= cycles {
				t.Fatalf("wait span for no cycle a sender feeds: %+v", s)
			}
		}
		return // found a schedule with waits and everything validated
	}
	t.Fatal("no seed made a cluster wait under chaos delivery")
}

// TestMetricsGoldenSequential pins the metrics snapshot of a seeded
// sequential schedule (K=1: no messages, no rollbacks, fully
// deterministic execution) against hand-derivable values, and demands the
// full Prometheus dump be byte-identical across two independent runs.
func TestMetricsGoldenSequential(t *testing.T) {
	ed := socDesign(t)
	nl := ed.Netlist
	const cycles = 50

	run := func() (*Result, *obs.Observer) {
		o := obs.New(obs.Options{})
		res, err := Run(Config{
			NL:        nl,
			GateParts: make([]int32, len(nl.Gates)),
			K:         1,
			Vectors:   sim.RandomVectors{Seed: 9},
			Cycles:    cycles,
			Obs:       o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, o
	}

	res1, o1 := run()
	snap := o1.Snapshot()

	get := func(name, labels string) float64 {
		t.Helper()
		v, ok := snap.Get(name, labels)
		if !ok {
			t.Fatalf("metric %s%s missing from snapshot", name, labels)
		}
		return v
	}
	cl0 := `{cluster="0"}`
	if v := get("tw_events", cl0); v != float64(res1.Stats.Events) || v == 0 {
		t.Fatalf("tw_events = %v, kernel says %d", v, res1.Stats.Events)
	}
	if v := get("tw_messages", cl0); v != 0 {
		t.Fatalf("single cluster sent %v messages", v)
	}
	// A single cluster has no sender to wait for.
	if v := get("tw_link_waits", cl0); v != 0 {
		t.Fatalf("single cluster waited %v times", v)
	}

	// Determinism: an independent identical run renders an identical
	// Prometheus dump, byte for byte.
	_, o2 := run()
	var a, b bytes.Buffer
	if err := o1.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := o2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("sequential schedule metrics not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			a.String(), b.String())
	}
}

// TestSnapshotMidRunRace reads metrics snapshots concurrently with a
// running multi-cluster kernel; under -race this proves the per-cluster
// stats are genuinely race-clean (satellite: atomics, not plain fields).
func TestSnapshotMidRunRace(t *testing.T) {
	ed := socDesign(t)
	nl := ed.Netlist
	const k = 4

	o := obs.New(obs.Options{})
	// The concurrent reader: snapshots every 500µs until the run returns,
	// then one closing snapshot.
	var series []obs.Snapshot
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				series = append(series, o.Registry().Snapshot())
				return
			case <-tick.C:
				series = append(series, o.Registry().Snapshot())
			}
		}
	}()
	res, err := Run(Config{
		NL:        nl,
		GateParts: randomParts(nl, k, 3),
		K:         k,
		Vectors:   sim.RandomVectors{Seed: 3},
		Cycles:    80,
		Transport: comm.Chaos(comm.ChaosConfig{Seed: 3, StallEvery: 5, Obs: o}),
		Obs:       o,
	})
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}

	if len(series) < 2 {
		t.Fatalf("expected several mid-run snapshots, got %d", len(series))
	}
	// Monotone counters must be monotone across the series, and the final
	// snapshot must agree with the kernel's own aggregation.
	total := func(s obs.Snapshot, name string) float64 {
		sum := 0.0
		for c := 0; c < k; c++ {
			if v, ok := s.Get(name, fmt.Sprintf(`{cluster="%d"}`, c)); ok {
				sum += v
			}
		}
		return sum
	}
	prev := -1.0
	for _, s := range series {
		ev := total(s, "tw_events")
		if ev < prev {
			t.Fatalf("tw_events total regressed mid-run: %v -> %v", prev, ev)
		}
		prev = ev
	}
	last := series[len(series)-1]
	if got := total(last, "tw_events"); got != float64(res.Stats.Events) {
		t.Fatalf("final snapshot tw_events = %v, kernel aggregated %d", got, res.Stats.Events)
	}
	if got := total(last, "tw_messages"); got != float64(res.Stats.Messages) {
		t.Fatalf("final snapshot tw_messages = %v, kernel aggregated %d", got, res.Stats.Messages)
	}
}
