package timewarp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/obs/profile"
)

// The profiling leg of the distributed federation. Every flame the
// coordinator writes — merged or per worker, after a clean finish or in a
// post-mortem bundle — is profile.Build over a trace ring it holds: its
// own, or the one it keeps per worker (coordFed.rings). A worker's CPU
// profile and goroutine dump are asked of the worker itself, at its
// -serve address (/debug/pprof).

// WriteProfiles renders the run's phase flames into dir: one merged
// worker-labeled folded stack (flame.folded) and per-worker folded stacks
// (worker-N.flame.folded). Valid at any point of the run; every write is
// atomic (temp + rename), so repeated calls are idempotent and a crash
// mid-write never leaves a truncated artifact.
func (co *Coordinator) WriteProfiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("timewarp: profile dir: %w", err)
	}
	write := func(name string, data []byte) error {
		if err := profile.WriteFileAtomic(filepath.Join(dir, name), data); err != nil {
			return fmt.Errorf("timewarp: profile %s: %w", name, err)
		}
		return nil
	}
	// The coordinator's own span profile first, then one labeled source
	// per worker.
	events, _ := co.cfg.Obs.Events()
	sources := []profile.FoldedSource{{Prefix: "coordinator", Stacks: profile.Build(events).Stacks}}
	for i, ring := range co.fed.rings {
		events, _ := ring.Events()
		sources = append(sources, profile.FoldedSource{
			Prefix: fmt.Sprintf("worker %d", i),
			Stacks: profile.Build(events).Stacks,
		})
	}
	if err := write(profile.FlameFile, profile.MergeFolded(nil, sources)); err != nil {
		return err
	}
	for i, src := range sources[1:] {
		folded := profile.MergeFolded(nil, []profile.FoldedSource{{Stacks: src.Stacks}})
		if err := write(fmt.Sprintf("worker-%d.%s", i, profile.FlameFile), folded); err != nil {
			return err
		}
	}
	return nil
}

// coordGoroutineDump renders the coordinator's own goroutine dump — the
// bundle's goroutines.txt. A wedged distributed run usually wedges the
// coordinator's round loop too, and the dump shows where.
func coordGoroutineDump() []byte {
	var b strings.Builder
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&b, 1)
	}
	return []byte(b.String())
}
