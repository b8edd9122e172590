package timewarp

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/sim"
)

// stampedTransport passes every frame on to the transport it wraps, and
// fails the test on a frame stamped with a cycle nobody executes: Cycles
// or later.
type stampedTransport struct {
	comm.Transport
	t      *testing.T
	cycles uint64
	frames *atomic.Int64
}

func (s stampedTransport) Send(dst int, f *comm.Frame) {
	if f.T >= s.cycles {
		s.t.Errorf("cluster %d shipped cluster %d a frame stamped %d of a %d-cycle run", f.Src, dst, f.T, s.cycles)
	}
	s.frames.Add(1)
	s.Transport.Send(dst, f)
}

// TestCountTermination runs a cut decoder for 0, 1 and 2 cycles over direct
// delivery, the chaos transport and two mesh workers. A run ends when its
// clusters have run their cycles: each must return with FinalGVT = Cycles
// and no invariant violated, and no cluster may ship a frame stamped
// Cycles or later — the last cycle ships nothing, so every frame of a
// 2-cycle run is stamped 1, and shorter runs send none.
func TestCountTermination(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	const k, seed = 2, 3
	parts := randomParts(nl, k, 1)
	for _, cycles := range []uint64{0, 1, 2} {
		var batches uint64 // the in-process runs' frames, which the mesh must match
		for _, tr := range []struct {
			name string
			f    comm.TransportFactory
		}{{"direct", syncDelivery}, {"chaos", comm.Chaos(comm.ChaosConfig{Seed: 7, StallEvery: 2})}} {
			var frames atomic.Int64
			res, err := Run(Config{
				NL: nl, GateParts: parts, K: k, Cycles: cycles,
				Vectors: sim.RandomVectors{Seed: seed},
				Transport: func(k int, deliver comm.DeliverFunc, mark comm.MarkFunc) comm.Transport {
					return stampedTransport{tr.f(k, deliver, mark), t, cycles, &frames}
				},
				StallTimeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("%d cycles, %s: %v", cycles, tr.name, err)
			}
			if res.FinalGVT != cycles || len(res.InvariantViolations) > 0 {
				t.Errorf("%d cycles, %s: final GVT %d, violations %v", cycles, tr.name, res.FinalGVT, res.InvariantViolations)
			}
			if uint64(frames.Load()) != res.Stats.Batches || cycles == 2 && frames.Load() == 0 || cycles < 2 && frames.Load() != 0 {
				t.Errorf("%d cycles, %s: %d frames sent, %d counted; want some exactly when a cycle follows the first",
					cycles, tr.name, frames.Load(), res.Stats.Batches)
			}
			batches = res.Stats.Batches
		}
		if testing.Short() {
			continue // distributed runs are socket-heavy
		}
		spec := &DistSpec{Source: c.Source, Top: c.Top, GateParts: parts, K: k, Cycles: cycles, VecSeed: seed}
		res, runErr, workerErrs := distRun(t, spec, 2, 0)
		if runErr != nil {
			t.Fatalf("%d cycles, mesh: coordinator: %v (workers: %v)", cycles, runErr, workerErrs)
		}
		for w, werr := range workerErrs {
			if werr != nil {
				t.Fatalf("%d cycles, mesh: worker %d: %v", cycles, w, werr)
			}
		}
		if res.FinalGVT != cycles || len(res.InvariantViolations) > 0 {
			t.Errorf("%d cycles, mesh: final GVT %d, violations %v", cycles, res.FinalGVT, res.InvariantViolations)
		}
		// The mesh carries what the in-process runs shipped, no frame more,
		// and each one crossed the wire: the clusters sit on two workers.
		if res.Stats.Batches != batches || res.WireFramesSent != batches {
			t.Errorf("%d cycles, mesh: %d frames, %d on the wire; the in-process runs shipped %d",
				cycles, res.Stats.Batches, res.WireFramesSent, batches)
		}
		t.Logf("%d cycles: %d frames", cycles, batches)
	}
}
