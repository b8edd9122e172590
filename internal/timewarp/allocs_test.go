package timewarp

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/causality"
	"repro/internal/partition"
	"repro/internal/sim"
)

// multiway elaborates c and partitions it with the design-driven
// partitioner.
func multiway(t *testing.T, c *gen.Circuit, opts partition.Options) (*elab.Design, *partition.Result) {
	t.Helper()
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ed, pr
}

// TestRunAllocs holds an in-process run's allocations, the run included,
// on three workloads: the default decoder split through its trellis (its
// clusters wait for each other), the SoC at k=4 with the metrics observer
// and the causality recorder attached, and the default SoC split along its
// channels (cut 0: the forward path, no message, no rollback). The first
// two depend on scheduling and are bounded at about twice their count
// (≈ 165 and ≈ 486 since the sweep sizes its flip-flop table; ≈ 176 and
// ≈ 495 since a link carries one frame a cycle, carved from slabs,
// instead of a batch of events; ≈ 377 and ≈ 885 before, against
// bounds of 5,000 and 5,500 set at ≈ 2,490 and ≈ 2,040; ≈ 13,650 and
// ≈ 6,650 when every event sent or received boxed the arguments of a
// never-enabled printf); the forward run is deterministic (≈ 103: neither
// cluster keeps a rollback record, fusing a cluster's table allocates its
// reader array with the records' outputs (the fold through fanout keeps
// its reader lists there too), its records, the slot map and the named
// slots once each, the latch's gather buffer is allocated once at one
// entry per flip-flop, the sweep's flip-flop table once at its size, and
// a cluster without links keeps no link table; ≈ 115 while the sweep grew
// its flip-flop table, ≈ 119 before the link frames, ≈ 106 while the
// records named their output nets, ≈ 117–120 before fusion, ≈ 116 before
// the copy table, ≈ 138 before the sweep) and bounded at about +10 % of
// its count before fusion.
func TestRunAllocs(t *testing.T) {
	vit, vitParts := multiway(t, gen.Viterbi(gen.DefaultViterbi), partition.Options{K: 2, B: 10, Seed: 1})
	// The SoC of distWorkloads at k=4, the configuration the observability
	// budget is stated against.
	soc, socParts := multiway(t, gen.ViterbiSoC(gen.SoCConfig{
		Channels:      2,
		Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
		ScramblerBits: 12,
		CRCBits:       8,
	}), partition.Options{K: 4, B: 10, Seed: 1, Restarts: 2})
	fwd, fwdParts := multiway(t, gen.ViterbiSoC(gen.DefaultSoC), partition.Options{K: 2, B: 10, Seed: 1})
	if fwdParts.Cut != 0 {
		t.Fatalf("aligned SoC partition has cut %d, want 0", fwdParts.Cut)
	}
	for _, tc := range []struct {
		name  string
		cfg   func() Config
		bound float64
	}{
		{"viterbi", func() Config {
			return Config{NL: vit.Netlist, GateParts: vitParts.GateParts, K: 2,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: 50}
		}, 400},
		{"instrumented", func() Config {
			return Config{NL: soc.Netlist, GateParts: socParts.GateParts, K: 4,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: 100,
				Obs: obs.New(obs.Options{}), Causality: causality.New()}
		}, 1100},
		{"forward", func() Config {
			return Config{NL: fwd.Netlist, GateParts: fwdParts.GateParts, K: 2,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: 500}
		}, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *Result
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if res, err = Run(tc.cfg()); err != nil {
					t.Fatal(err)
				}
			})
			if len(res.InvariantViolations) > 0 {
				t.Fatalf("invariant violations: %v", res.InvariantViolations)
			}
			if tc.name == "forward" && res.Stats.Messages != 0 {
				t.Fatalf("forward-only run sent %d messages", res.Stats.Messages)
			}
			t.Logf("%.0f allocations a run", allocs)
			if allocs > tc.bound {
				t.Errorf("%.0f allocations a run, want at most %.0f", allocs, tc.bound)
			}
		})
	}
}

// TestDistRunAllocs holds a distributed run's allocations — coordinator
// and two workers in this process, meshed over loopback sockets, the
// default decoder at k=4 for 200 cycles — at about twice their count,
// without and with every observer attached (≈ 27.3 k and ≈ 28.7 k since a
// link carries one frame a cycle; ≈ 31.3 k and ≈ 32.6 k with a batch of
// events, ≈ 39.6 k and ≈ 42.5 k before that, against bounds of 80,000 and
// 90,000; ≈ 219 k and ≈ 222 k with the printf boxing).
func TestDistRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.DefaultViterbi)
	_, pr := multiway(t, c, partition.Options{K: 4, B: 10, Seed: 1})
	spec := &DistSpec{Source: c.Source, Top: c.Top, GateParts: pr.GateParts, K: 4, Cycles: 200, VecSeed: 1}
	for _, tc := range []struct {
		name         string
		instrumented bool
		bound        float64
	}{
		{"obs off", false, 56000},
		{"obs on", true, 58000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(1, func() {
				var do distObs
				if tc.instrumented {
					do.coord = obs.New(obs.Options{})
					do.workers = []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})}
				}
				_, runErr, workerErrs := distRunObs(t, spec, 2, 0, do)
				if runErr != nil {
					t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
				}
			})
			t.Logf("%.0f allocations a run", allocs)
			if allocs > tc.bound {
				t.Errorf("%.0f allocations a run, want at most %.0f", allocs, tc.bound)
			}
		})
	}
}
