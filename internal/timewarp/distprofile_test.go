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

func TestProfileCodecRoundTrip(t *testing.T) {
	p := distProfile{
		Reason:     "rollback storm: 9000 rollbacks/s",
		CPU:        []byte{0x1f, 0x8b, 0x08, 0x00},
		Goroutines: []byte("goroutine 1 [running]:\nmain.main()\n"),
	}
	enc := appendProfile(nil, p)
	got, err := decodeProfile(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Reason != p.Reason {
		t.Errorf("reason = %q, want %q", got.Reason, p.Reason)
	}
	if !bytes.Equal(got.CPU, p.CPU) || !bytes.Equal(got.Goroutines, p.Goroutines) {
		t.Error("blobs did not round-trip")
	}

	// An empty profile round-trips too.
	empty, err := decodeProfile(appendProfile(nil, distProfile{Reason: "finish"}))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if empty.Reason != "finish" || len(empty.CPU)+len(empty.Goroutines) != 0 {
		t.Fatalf("empty profile = %+v", empty)
	}

	// Every truncation prefix must fail cleanly, never panic or succeed.
	for n := 0; n < len(enc); n++ {
		if _, err := decodeProfile(enc[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte truncation of %d-byte frame", n, len(enc))
		}
	}
}

func TestProfileCodecRejectsHostile(t *testing.T) {
	// Wrong version byte — including the one that carried folded stacks.
	enc := appendProfile(nil, distProfile{Reason: "x"})
	for _, v := range []byte{1, 3} {
		bad := append([]byte(nil), enc...)
		bad[0] = v
		if _, err := decodeProfile(bad); err == nil {
			t.Errorf("decode accepted version %d", v)
		}
	}

	// A blob length far larger than the payload: rejected, not allocated.
	hostile := []byte{profileVersion}
	hostile = append(hostile, 0, 0, 0, 0)             // empty reason
	hostile = append(hostile, 0xff, 0xff, 0xff, 0x7f) // absurd CPU length
	if _, err := decodeProfile(hostile); err == nil {
		t.Error("decode accepted oversized blob length")
	}

	// Blobs over the cap are rejected after decode, before retention.
	bigBlob := appendProfile(nil, distProfile{CPU: make([]byte, maxProfileBlob+1)})
	if _, err := decodeProfile(bigBlob); err == nil {
		t.Error("decode accepted oversized CPU blob")
	}
}

// TestDistributedProfileFederation runs a clean two-worker distributed
// simulation with observers and capturers attached and a profile dir
// set, then checks the coordinator rendered the merged worker-labeled
// flame plus per-worker folded stacks — the -profile-dir contract of
// vsim -mode dist.
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
		coord:   obs.New(obs.Options{}),
		workers: wobs,
		probes:  []*Probe{NewProbe(), NewProbe()},
		workerProfs: []*profile.Capturer{
			{Source: func() []obs.Event { evs, _ := wobs[0].Events(); return evs }},
			{Source: func() []obs.Event { evs, _ := wobs[1].Events(); return evs }},
		},
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
}
