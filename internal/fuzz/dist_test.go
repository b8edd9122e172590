package fuzz

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/timewarp"
)

// TestDistributedFuzzSpecs runs the circuit and partition of every
// TestFuzzShort seed through the distributed runtime — a coordinator and
// min(2, k) workers in this process, meshed over real sockets — and
// compares every registered-state net with the sequential simulator. A
// spec's chaos schedule and fault knobs live in the in-process kernel and
// a DistSpec ships neither, so the wire path is checked here rather than
// as a Spec arm.
func TestDistributedFuzzSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	for seed := int64(1); seed <= 25; seed++ {
		spec := NewSpec(seed, true)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := spec.Circuit()
			ed, err := c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			nl := ed.Netlist
			parts, used, err := spec.GateParts(ed)
			if err != nil {
				t.Fatal(err)
			}
			k := clusterCount(parts)
			state := sim.StateNets(nl)
			want, err := sim.Record(nl, sim.RandomVectors{Seed: spec.GenSeed}, spec.Cycles, state)
			if err != nil {
				t.Fatal(err)
			}
			co, err := timewarp.NewCoordinator(timewarp.CoordConfig{
				Spec: &timewarp.DistSpec{
					Source: c.Source, Top: c.Top, GateParts: parts, K: k,
					Cycles: spec.Cycles, VecSeed: spec.GenSeed,
					Observe: state,
				},
				Workers:      min(2, k),
				StallTimeout: testStall,
				RunTimeout:   4 * testStall,
			})
			if err != nil {
				t.Fatal(err)
			}
			workerErrs := make([]error, min(2, k))
			var wg sync.WaitGroup
			for w := range workerErrs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					workerErrs[w] = timewarp.RunWorker(timewarp.WorkerOptions{Coordinator: co.Addr()})
				}()
			}
			res, err := co.Run()
			wg.Wait()
			if err != nil {
				t.Fatalf("coordinator: %v (workers: %v)", err, workerErrs)
			}
			for w, werr := range workerErrs {
				if werr != nil {
					t.Fatalf("worker %d: %v", w, werr)
				}
			}
			if len(res.InvariantViolations) > 0 {
				t.Fatalf("invariant violations: %v", res.InvariantViolations)
			}
			if msg := diffObserved(nl, state, want, res.Observed); msg != "" {
				t.Fatalf("%s (family=%s part=%s k=%d)", msg, spec.Family, used, k)
			}
			t.Logf("family=%s part=%s k=%d cycles=%d: %d state nets, %d messages, %d wire frames",
				spec.Family, used, k, spec.Cycles, len(state), res.Stats.Messages, res.WireFramesSent)
		})
	}
}
