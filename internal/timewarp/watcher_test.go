package timewarp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/obs/causality"
	"repro/internal/sim"
)

// swallowTransport loses every message and every watermark: nothing is
// ever delivered, so receivers wait forever for their senders' watermarks
// — a genuinely wedged cluster configuration.
type swallowTransport struct{}

func (swallowTransport) Send(dst int, f *comm.Frame)  {}
func (swallowTransport) Mark(src int, through uint64) {}
func (swallowTransport) Close()                       {}

func TestStallWatcherFiresOnWedgedCluster(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	_, err = Run(Config{
		NL: nl, GateParts: randomParts(nl, 2, 1), K: 2,
		Vectors: sim.RandomVectors{Seed: 5}, Cycles: 500,
		Transport:    func(int, comm.DeliverFunc, comm.MarkFunc) comm.Transport { return swallowTransport{} },
		StallTimeout: 250 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run over a message-swallowing transport terminated cleanly; stall watcher never fired")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("expected stall diagnosis, got: %v", err)
	}
}

func TestStallWatcherDisabledByDefaultStillTerminates(t *testing.T) {
	// StallTimeout zero (the default) must keep the previous semantics: a
	// healthy run terminates normally with no stall machinery involved.
	c := gen.LFSR(12, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	res, err := Run(Config{
		NL: nl, GateParts: randomParts(nl, 2, 3), K: 2,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InvariantViolations) != 0 {
		t.Fatalf("invariant violations on a healthy run: %v", res.InvariantViolations)
	}
	if res.FinalGVT != 100 {
		t.Errorf("final GVT %d, want 100 (all cycles committed)", res.FinalGVT)
	}
}

func TestChaosTransportStallsDoNotTripGenerousTimeout(t *testing.T) {
	// Chaos stall schedules hold messages and watermarks for milliseconds;
	// a seconds-scale stall timeout must ride them out and the run must
	// stay correct. Every frame sent is stamped with a cycle its receiver
	// executes, so the causality recorder sees each one consumed.
	ed, err := gen.LFSR(16, nil).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	rec := causality.New()
	st := runBothCfg(t, ed, randomParts(ed.Netlist, 3, 7), 3, 150, 13, func(c *Config) {
		c.Transport = comm.Chaos(comm.ChaosConfig{
			Seed: 41, MaxDelay: 200 * time.Microsecond,
			StallEvery: 20, StallFor: 2 * time.Millisecond,
		})
		c.StallTimeout = 20 * time.Second
		c.Causality = rec
	}).Stats
	if uint64(rec.Frames()) != st.Batches || st.Batches == 0 {
		t.Errorf("%d frames consumed, %d sent; want all of some", rec.Frames(), st.Batches)
	}
	t.Logf("chaos run: msgs=%d link waits=%d", st.Messages, st.LinkWaits)
}
