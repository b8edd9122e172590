// Package fuzz is the seed-driven differential correctness harness for
// the Time Warp kernel: every run generates a random circuit and
// stimulus, partitions it with one of the real partitioners, simulates it
// both sequentially (internal/sim, the oracle) and optimistically
// (internal/timewarp over internal/comm), and asserts bit-identical
// observed waveforms per cycle plus kernel invariants. Runs execute under
// the chaos transport by default, so delivery-order adversaries provoke
// the stragglers, rollback cascades and lazy cancellations the benign Go
// scheduler never would — the harness fails a campaign that provokes too
// few rollbacks as "not adversarial enough".
//
// Everything is derived deterministically from one int64 seed, so any
// failure replays from its printed seed (cmd/fuzz -replay) and shrinks to
// a minimal reproducer (shrink.go).
package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/clustersim"
	"repro/internal/comm"
	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
)

// Families and partitioners the spec generator draws from. Scatter is
// over-weighted: random gate scattering maximizes inter-cluster traffic,
// the fuel rollback cascades run on.
var (
	families     = []string{"randhier", "lfsr", "multiplier", "fir", "viterbi"}
	partitioners = []string{"multiway", "recursive", "scatter", "scatter"}
)

// Spec is one fully-determined differential run. All fields derive from
// Seed via NewSpec; a Spec literal is also a standalone reproducer (see
// ReproSnippet).
type Spec struct {
	Seed      int64
	Family    string // randhier | lfsr | multiplier | fir | viterbi
	GenSeed   int64  // circuit generator / partitioner / stimulus seed
	Size      int    // family-specific scale knob, 1 (tiny) .. 4 (default-ish)
	K         int    // clusters
	Partition string // multiway | recursive | scatter
	B         float64
	Cycles    uint64
	Chaos     *comm.ChaosConfig // nil = benign direct delivery
	// Packed additionally runs the cluster model twice — scalar and
	// 64-wide bit-parallel trace generators — and fails on any Result
	// divergence: the packed engine differential, fuzzed over the same
	// random circuits and partitions the kernel differential sees.
	Packed bool
}

// NewSpec derives the run specification for a seed. The derivation is a
// pure function: same (seed, chaos) → same Spec, the property seed replay
// stands on.
func NewSpec(seed int64, chaos bool) Spec {
	rng := rand.New(rand.NewSource(seed))
	s := Spec{
		Seed:      seed,
		Family:    families[rng.Intn(len(families))],
		GenSeed:   1 + rng.Int63n(1<<30),
		Size:      1 + rng.Intn(4),
		K:         2 + rng.Intn(5), // 2..6
		Partition: partitioners[rng.Intn(len(partitioners))],
		B:         2.5 * float64(1+rng.Intn(6)), // 2.5..15
		Cycles:    uint64(40 + rng.Intn(120)),
	}
	// Five draws the kernel's former optimism window, checkpoint options and
	// batching switch consumed, still made so that every later field — and
	// every historical replay seed — derives as before.
	rng.Intn(12)
	rng.Intn(6)
	rng.Intn(3)
	rng.Intn(8)
	rng.Intn(4)
	if chaos {
		s.Chaos = &comm.ChaosConfig{
			Seed:       rng.Int63(),
			MaxDelay:   time.Duration(50+rng.Intn(250)) * time.Microsecond,
			StallEvery: 12 + rng.Intn(48),
			StallFor:   time.Duration(1+rng.Intn(4)) * time.Millisecond,
		}
	}
	rng.Intn(4) // the former loopback-socket knob's draw, kept for the same reason
	// Drawn last so every earlier seed→field derivation (and therefore
	// every historical replay seed) is unchanged by the knob's addition.
	s.Packed = rng.Intn(3) == 0 // 1/3 of runs also diff the packed model
	return s
}

// Circuit builds the spec's netlist-generator circuit.
func (s Spec) Circuit() *gen.Circuit {
	switch s.Family {
	case "lfsr":
		return gen.LFSR(8+4*s.Size, nil) // 12..24 bits
	case "multiplier":
		return gen.Multiplier(2 + s.Size) // 3..6 bits
	case "fir":
		return gen.FIR(gen.FIRConfig{Taps: 2 + 2*s.Size, W: 3 + s.Size, Seed: s.GenSeed})
	case "viterbi":
		return gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 2 + 2*s.Size})
	default: // randhier
		cfg := gen.RandHierConfig{
			ModuleTypes:        2 + 2*s.Size,
			GatesPerModule:     5 * s.Size,
			InstancesPerModule: 2,
			TopInstances:       2 + 2*s.Size,
			PIs:                8,
			Seed:               s.GenSeed,
			DFFFraction:        0.25,
		}
		return gen.RandomHierarchical(cfg)
	}
}

// GateParts partitions the elaborated design per the spec. Partitioners
// that cannot honour the requested K on a tiny circuit (too few vertices)
// fall back to a seeded scatter — the fallback is reported so the harness
// stays honest about which code path ran.
func (s Spec) GateParts(ed *elab.Design) (parts []int32, used string, err error) {
	k := s.K
	if g := ed.Netlist.NumGates(); k > g {
		k = g // degenerate tiny circuit
	}
	switch s.Partition {
	case "multiway", "recursive":
		opts := partition.Options{K: k, B: s.B, Seed: s.GenSeed, Restarts: 2, Workers: 1}
		var res *partition.Result
		if s.Partition == "multiway" {
			res, err = partition.Multiway(ed, opts)
		} else {
			res, err = partition.Recursive(ed, opts)
		}
		if err == nil {
			return res.GateParts, s.Partition, nil
		}
		// Too coarse for K: scatter instead, and say so.
		usedName := s.Partition + "→scatter"
		return scatterParts(ed.Netlist, k, s.GenSeed), usedName, nil
	default:
		return scatterParts(ed.Netlist, k, s.GenSeed), "scatter", nil
	}
}

func scatterParts(nl *netlist.Netlist, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]int32, len(nl.Gates))
	for i := range parts {
		parts[i] = int32(rng.Intn(k))
	}
	return parts
}

// RunResult is the outcome of one differential run.
type RunResult struct {
	Spec        Spec
	Partitioner string // partitioner actually used (fallbacks recorded)
	Err         error  // infra/kernel error, incl. stall-watcher aborts
	Mismatch    string // first sequential-vs-Time-Warp divergence, "" if none
	Violations  []string
	Stats       timewarp.Stats
	FinalGVT    uint64
	Elapsed     time.Duration
}

// Failed reports whether the run found a correctness problem.
func (r *RunResult) Failed() bool {
	return r.Err != nil || r.Mismatch != "" || len(r.Violations) > 0
}

// Failure renders the failure reason ("" when the run passed).
func (r *RunResult) Failure() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("seed %d: %v", r.Spec.Seed, r.Err)
	case r.Mismatch != "":
		return fmt.Sprintf("seed %d: %s", r.Spec.Seed, r.Mismatch)
	case len(r.Violations) > 0:
		return fmt.Sprintf("seed %d: invariant violations: %v", r.Spec.Seed, r.Violations)
	}
	return ""
}

// Execute runs the spec differentially: sequential oracle first, then the
// Time Warp cluster, comparing the committed per-cycle values of the
// primary outputs and every flip-flop bit for bit. faults, when non-nil,
// injects kernel regressions (harness self-tests only). stallTimeout
// bounds a wedged run (0 = wait forever); a livelocked run — continuous
// activity that never terminates, invisible to the inactivity detector —
// is cut at four times that by the kernel's hard wall-clock cap.
func Execute(spec Spec, faults *timewarp.FaultConfig, stallTimeout time.Duration) (res RunResult) {
	return ExecuteObserved(spec, faults, stallTimeout, nil)
}

// ExecuteObserved is Execute with the observability layer attached to the
// kernel and (when chaotic) the transport: the trace of a failing seed —
// rollback spans, anti-message bursts, chaos stall instants — is the
// post-mortem the campaign writes out. A nil observer reduces to Execute.
func ExecuteObserved(spec Spec, faults *timewarp.FaultConfig, stallTimeout time.Duration, o *obs.Observer) (res RunResult) {
	start := time.Now()
	res = RunResult{Spec: spec}
	defer func() { res.Elapsed = time.Since(start) }()

	ed, err := spec.Circuit().Elaborate()
	if err != nil {
		res.Err = fmt.Errorf("elaborate: %w", err)
		return res
	}
	nl := ed.Netlist
	parts, used, err := spec.GateParts(ed)
	if err != nil {
		res.Err = fmt.Errorf("partition: %w", err)
		return res
	}
	res.Partitioner = used
	k := clusterCount(parts)

	// Sequential oracle over the design's whole registered state.
	vs := sim.RandomVectors{Seed: spec.GenSeed}
	state := sim.StateNets(nl)
	want, err := sim.Record(nl, vs, spec.Cycles, state)
	if err != nil {
		res.Err = fmt.Errorf("sim: %w", err)
		return res
	}

	// Time Warp under (optionally) adversarial delivery.
	cfg := timewarp.Config{
		NL:           nl,
		GateParts:    parts,
		K:            k,
		Vectors:      vs,
		Cycles:       spec.Cycles,
		Observe:      state,
		StallTimeout: stallTimeout,
		RunTimeout:   4 * stallTimeout,
		Faults:       faults,
		Obs:          o,
	}
	if spec.Chaos != nil {
		cc := *spec.Chaos
		cc.Obs = o
		cfg.Transport = comm.Chaos(cc)
	}
	tw, err := timewarp.Run(cfg)
	if err != nil {
		res.Err = fmt.Errorf("timewarp: %w", err)
		return res
	}
	res.Stats = tw.Stats
	res.FinalGVT = tw.FinalGVT
	res.Violations = tw.InvariantViolations

	if msg := diffObserved(nl, state, want, tw.Observed); msg != "" {
		res.Mismatch = fmt.Sprintf("%s (family=%s part=%s k=%d chaos=%v)",
			msg, spec.Family, used, k, spec.Chaos != nil)
		return res
	}

	if spec.Packed {
		if msg := diffPackedModel(spec, nl, parts, k); msg != "" {
			res.Mismatch = msg
		}
	}
	return res
}

// clusterCount is the number of clusters a gate partition uses (at
// least 1).
func clusterCount(parts []int32) int {
	k := 1
	for _, p := range parts {
		k = max(k, int(p)+1)
	}
	return k
}

// diffObserved reports the first (net, cycle) of nets where the kernel's
// committed values got differ from the sequential oracle's want ("" if
// none).
func diffObserved(nl *netlist.Netlist, nets []netlist.NetID, want, got map[netlist.NetID][]bool) string {
	for _, n := range nets {
		g, ok := got[n]
		if !ok {
			return fmt.Sprintf("net %s not observed by the kernel", nl.Nets[n].Name)
		}
		for c, w := range want[n] {
			if g[c] != w {
				return fmt.Sprintf("net %s cycle %d: timewarp %v, sequential %v", nl.Nets[n].Name, c, g[c], w)
			}
		}
	}
	return ""
}

// diffPackedModel runs the cluster model with the scalar and the packed
// trace generators and reports the first Result divergence ("" if
// bit-identical). K > sim.Lanes cannot be packed and is skipped — the
// spec generator never draws such a K, but shrunk/hand-written specs may.
func diffPackedModel(spec Spec, nl *netlist.Netlist, parts []int32, k int) string {
	if k > sim.Lanes {
		return ""
	}
	run := func(mode clustersim.PackedMode) (*clustersim.Result, error) {
		return clustersim.Run(clustersim.Config{
			NL: nl, GateParts: parts, K: k,
			Vectors: sim.RandomVectors{Seed: spec.GenSeed},
			Cycles:  spec.Cycles, Packed: mode,
		})
	}
	scalar, err := run(clustersim.PackedOff)
	if err != nil {
		return fmt.Sprintf("clustersim scalar: %v", err)
	}
	packed, err := run(clustersim.PackedOn)
	if err != nil {
		return fmt.Sprintf("clustersim packed: %v", err)
	}
	if !reflect.DeepEqual(scalar, packed) {
		return fmt.Sprintf("packed cluster model diverges from scalar (family=%s k=%d):\nscalar: %+v\npacked: %+v",
			spec.Family, k, scalar, packed)
	}
	return ""
}
