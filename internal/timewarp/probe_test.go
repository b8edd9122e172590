package timewarp

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/sim"
)

func TestProbeIdleAndNil(t *testing.T) {
	var nilProbe *Probe
	st := nilProbe.State()
	if st.Attached {
		t.Fatal("nil probe reports attached")
	}
	ok, detail := st.Health(0)
	if !ok || !strings.Contains(detail, "idle") {
		t.Fatalf("nil probe health = %v %q, want healthy idle", ok, detail)
	}
	// Unattached updates must be no-ops, not panics.
	nilProbe.attach(10)
	nilProbe.note(1, true)
	nilProbe.finish(nil)

	if ok, _ := NewProbe().State().Health(0); !ok {
		t.Fatal("fresh probe unhealthy")
	}
}

// TestProbeHealthyRun polls the probe from a second goroutine while the
// kernel runs (the race detector checks the read path), then asserts
// the terminal state: done, not failed, min progress at the full run
// length.
func TestProbeHealthyRun(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	p := NewProbe()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := p.State()
				if st.Attached && st.MinProgress > st.Cycles {
					t.Errorf("min progress %d beyond %d cycles", st.MinProgress, st.Cycles)
					return
				}
				st.Health(time.Second)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const cycles = 400
	_, err = Run(Config{
		NL: nl, GateParts: randomParts(nl, 2, 11), K: 2,
		Vectors: sim.RandomVectors{Seed: 7}, Cycles: cycles,
		Probe: p,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	st := p.State()
	if !st.Attached || !st.Done || st.Failed {
		t.Fatalf("terminal state = %+v, want attached+done, not failed", st)
	}
	if st.MinProgress != cycles {
		t.Errorf("terminal min progress = %d, want %d", st.MinProgress, cycles)
	}
	ok, detail := st.Health(0)
	if !ok || !strings.Contains(detail, "complete") {
		t.Errorf("terminal health = %v %q, want healthy complete", ok, detail)
	}
}

// TestProbeReportsWedgedRun drives the kernel over the message-swallowing
// transport and watches the probe flip unhealthy: first via the stall
// threshold on live state, then via the failed terminal state — the exact
// signal the monitoring server's /healthz surfaces as a 503.
func TestProbeReportsWedgedRun(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	p := NewProbe()

	runErr := make(chan error, 1)
	go func() {
		_, err := Run(Config{
			NL: nl, GateParts: randomParts(nl, 2, 1), K: 2,
			Vectors: sim.RandomVectors{Seed: 5}, Cycles: 500,
			Transport:    func(int, comm.DeliverFunc, comm.MarkFunc) comm.Transport { return swallowTransport{} },
			StallTimeout: 250 * time.Millisecond,
			Probe:        p,
		})
		runErr <- err
	}()

	// While the run is wedged but not yet aborted, a tight stall
	// threshold must turn the live state unhealthy.
	sawLiveStall := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := p.State()
		if st.Done {
			break
		}
		if st.Attached {
			if ok, detail := st.Health(50 * time.Millisecond); !ok && strings.Contains(detail, "stalled") {
				sawLiveStall = true
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawLiveStall {
		t.Error("live probe never reported a stall before the watcher aborted")
	}

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("wedged run terminated cleanly")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged run did not abort")
	}
	st := p.State()
	if !st.Done || !st.Failed {
		t.Fatalf("terminal state = %+v, want done+failed", st)
	}
	ok, detail := st.Health(0)
	if ok || !strings.Contains(detail, "stalled") {
		t.Errorf("terminal health = %v %q, want unhealthy with stall diagnosis", ok, detail)
	}
}

// TestProbeSeesHeartbeatingStall: a worker notes its own clusters'
// progress on its probe at every report. A note in which none of them moved
// leaves the last advance where it was, so a worker whose clusters are
// wedged while it still heartbeats turns unhealthy; another worker's
// cluster moving is not this worker's progress.
func TestProbeSeesHeartbeatingStall(t *testing.T) {
	ed, err := gen.LFSR(16, nil).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	p := NewProbe()
	h, err := newHost(Config{NL: nl, GateParts: randomParts(nl, 2, 1), K: 2,
		Vectors: sim.RandomVectors{Seed: 5}, Cycles: 10, Probe: p}, "dist", func(c int) bool { return c == 1 })
	if err != nil {
		t.Fatal(err)
	}
	p.attach(10)
	h.progress[1].Store(3)
	h.note()
	moved := p.State().LastAdvance
	time.Sleep(20 * time.Millisecond)
	h.note()
	h.progress[0].Store(5)
	h.note()
	st := p.State()
	if !st.LastAdvance.Equal(moved) || st.MinProgress != 3 {
		t.Fatalf("after notes without local progress: last advance %v (was %v), min progress %d; want unchanged, 3",
			st.LastAdvance, moved, st.MinProgress)
	}
	if ok, detail := st.Health(10 * time.Millisecond); ok || !strings.Contains(detail, "stalled") {
		t.Fatalf("health %v %q, want stalled", ok, detail)
	}
	h.progress[1].Store(4)
	h.note()
	if st := p.State(); !st.LastAdvance.After(moved) || st.MinProgress != 4 {
		t.Fatalf("after a local cluster moved: last advance %v (was %v), min progress %d; want later, 4",
			st.LastAdvance, moved, st.MinProgress)
	}
}
