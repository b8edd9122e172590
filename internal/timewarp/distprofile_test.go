package timewarp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/partition"
)

// TestDistributedProfileFederation runs a clean two-worker distributed
// simulation with observers attached and a profile dir set, then checks
// the coordinator rendered the merged worker-labeled flame plus per-worker
// folded stacks and nothing else — the -profile-dir contract of vsim
// -mode dist.
func TestDistributedProfileFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 2000
	spec := &DistSpec{
		Source:    c.Source,
		Top:       c.Top,
		GateParts: pr.GateParts,
		K:         4,
		Cycles:    cycles,
		VecSeed:   29,
	}
	dir := t.TempDir()
	wobs := []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})}
	do := distObs{
		coord:      obs.New(obs.Options{}),
		workers:    wobs,
		probes:     []*Probe{NewProbe(), NewProbe()},
		profileDir: dir,
	}
	res, runErr, workerErrs := distRunObs(t, spec, 2, 0, do)
	if runErr != nil {
		t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	if res.FinalGVT != cycles {
		t.Errorf("final GVT %d, want %d", res.FinalGVT, cycles)
	}

	// The merged flame validates and is labeled by source: coordinator
	// rounds plus both workers' cluster stacks.
	merged, err := os.ReadFile(filepath.Join(dir, profile.FlameFile))
	if err != nil {
		t.Fatalf("merged flame: %v", err)
	}
	if _, err := profile.ValidateFolded(merged); err != nil {
		t.Fatalf("merged flame invalid: %v\n%s", err, merged)
	}
	for _, prefix := range []string{"coordinator;", "worker 0;", "worker 1;"} {
		if !bytes.Contains(merged, []byte(prefix)) {
			t.Errorf("merged flame missing %q stacks:\n%s", prefix, merged)
		}
	}

	// Per-worker folded stacks exist and validate on their own, and each
	// is the flame of one worker's own ring: the coordinator's ring per
	// worker lost nothing the worker still held, which is why no flame
	// needs shipping. (Worker ids follow accept order, so match as a set.)
	own := map[string]bool{}
	for _, wo := range wobs {
		evs, _ := wo.Events()
		own[string(profile.Build(evs).AppendFolded(nil, ""))] = true
	}
	for w := 0; w < 2; w++ {
		name := filepath.Join(dir, "worker-"+string(rune('0'+w))+"."+profile.FlameFile)
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("worker flame: %v", err)
		}
		if _, err := profile.ValidateFolded(data); err != nil {
			t.Errorf("worker %d flame invalid: %v", w, err)
		}
		if !own[string(data)] {
			t.Errorf("worker %d flame is not the flame of either worker's own ring:\n%s", w, data)
		}
	}
	// No CPU profile is written: that one is asked of /debug/pprof.
	if pb, _ := filepath.Glob(filepath.Join(dir, "*.pb.gz")); len(pb) > 0 {
		t.Errorf("profile dir holds %v", pb)
	}
}
