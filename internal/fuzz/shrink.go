package fuzz

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/timewarp"
)

// ShrinkAttempts is how many times a shrink candidate is re-executed
// before it is declared passing. Concurrent schedules make some failures
// probabilistic; a candidate counts as still-failing if ANY attempt fails.
const ShrinkAttempts = 3

// Shrink greedily minimises a failing spec: it tries, in order, fewer
// cycles, a smaller circuit, fewer clusters, the default window and
// finally chaos off, restarting from the front after
// every accepted reduction, until no candidate still fails. It returns
// the minimal failing spec and its failure.
func Shrink(spec Spec, faults *timewarp.FaultConfig, stallTimeout time.Duration) (Spec, RunResult) {
	cur := spec
	last := Execute(cur, faults, stallTimeout)
	for {
		reduced := false
		for _, cand := range shrinkCandidates(cur) {
			if res, failed := stillFails(cand, faults, stallTimeout); failed {
				cur, last = cand, res
				reduced = true
				break // restart candidate list from the strongest reduction
			}
		}
		if !reduced {
			return cur, last
		}
	}
}

// stillFails re-executes cand up to ShrinkAttempts times and reports the
// first failing result.
func stillFails(cand Spec, faults *timewarp.FaultConfig, stallTimeout time.Duration) (RunResult, bool) {
	for a := 0; a < ShrinkAttempts; a++ {
		res := Execute(cand, faults, stallTimeout)
		if res.Failed() {
			return res, true
		}
	}
	return RunResult{}, false
}

// shrinkCandidates lists one-step reductions of spec, strongest first.
func shrinkCandidates(spec Spec) []Spec {
	var cands []Spec
	if spec.Cycles > 8 {
		c := spec
		c.Cycles = spec.Cycles / 2
		if c.Cycles < 8 {
			c.Cycles = 8
		}
		cands = append(cands, c)
	}
	if spec.Size > 1 {
		c := spec
		c.Size--
		cands = append(cands, c)
	}
	if spec.K > 2 {
		c := spec
		c.K--
		cands = append(cands, c)
	}
	if spec.Window != 8 {
		c := spec
		c.Window = 8
		cands = append(cands, c)
	}
	if spec.Chaos != nil {
		c := spec
		c.Chaos = nil
		cands = append(cands, c)
	}
	if spec.Packed {
		c := spec
		c.Packed = false
		cands = append(cands, c)
	}
	return cands
}

// ReproSnippet renders a failing spec as a standalone Go test the kernel
// developer can paste into internal/fuzz — the shrinker's final output.
func ReproSnippet(spec Spec, failure string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Minimal reproducer emitted by the fuzz shrinker.\n")
	fmt.Fprintf(&b, "// Failure: %s\n", failure)
	fmt.Fprintf(&b, "func TestFuzzReproSeed%d(t *testing.T) {\n", spec.Seed)
	fmt.Fprintf(&b, "\tspec := fuzz.Spec{\n")
	fmt.Fprintf(&b, "\t\tSeed: %d, Family: %q, GenSeed: %d, Size: %d,\n",
		spec.Seed, spec.Family, spec.GenSeed, spec.Size)
	fmt.Fprintf(&b, "\t\tK: %d, Partition: %q, B: %g,\n", spec.K, spec.Partition, spec.B)
	fmt.Fprintf(&b, "\t\tCycles: %d, Window: %d,\n", spec.Cycles, spec.Window)
	if spec.Packed {
		fmt.Fprintf(&b, "\t\tPacked: true,\n")
	}
	if c := spec.Chaos; c != nil {
		fmt.Fprintf(&b, "\t\tChaos: &comm.ChaosConfig{Seed: %d, MaxDelay: %d, StallEvery: %d, StallFor: %d},\n",
			c.Seed, c.MaxDelay, c.StallEvery, c.StallFor)
	}
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "\tfor attempt := 0; attempt < %d; attempt++ {\n", ShrinkAttempts)
	fmt.Fprintf(&b, "\t\tif res := fuzz.Execute(spec, nil, 30*time.Second); res.Failed() {\n")
	fmt.Fprintf(&b, "\t\t\tt.Fatal(res.Failure())\n")
	fmt.Fprintf(&b, "\t\t}\n")
	fmt.Fprintf(&b, "\t}\n")
	fmt.Fprintf(&b, "}\n")
	return b.String()
}
