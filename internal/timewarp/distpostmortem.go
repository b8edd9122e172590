package timewarp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// The coordinator's flight recorder: everything below renders from the
// state the coordinator already retains (coordFed's per-worker trace
// rings, clock offsets and GVT-round history, and the federated registry),
// so a post-mortem bundle can be written at the instant of an abort with
// no further collection — the workers may already be dead.

// traceSources assembles the merged-trace inputs: the coordinator's own
// ring first, then one source per worker with its handshake-derived
// clock offset.
func (co *Coordinator) traceSources() []obs.TraceSource {
	var sources []obs.TraceSource
	events, dropped := co.cfg.Obs.Events()
	sources = append(sources, obs.TraceSource{
		Name:    "coordinator",
		Events:  events,
		Dropped: dropped,
	})
	fd := co.fed
	fd.mu.Lock()
	defer fd.mu.Unlock()
	for i, ring := range fd.rings {
		events, dropped := ring.Events()
		sources = append(sources, obs.TraceSource{
			Name:         fmt.Sprintf("worker %d", i),
			OffsetMicros: fd.offsetsUS[i],
			Events:       events,
			Dropped:      dropped + fd.lost[i],
		})
	}
	return sources
}

// WriteMergedTrace writes the merged cluster trace: one Chrome-trace
// process per worker (timestamps rebased onto the coordinator's clock)
// plus the coordinator's own GVT-round spans. Valid at any point of the
// run; after a clean finish it holds every worker's shipped ring tail.
func (co *Coordinator) WriteMergedTrace(w io.Writer) error {
	return obs.WriteMergedChromeTrace(w, co.traceSources())
}

// postMortemProbe is the probes.json shape: the coordinator's liveness
// view plus the per-worker federation state at the moment of death.
type postMortemProbe struct {
	Reason      string             `json:"reason"`
	Coordinator ProbeState         `json:"coordinator"`
	Workers     []postMortemWorker `json:"workers"`
}

type postMortemWorker struct {
	Worker int `json:"worker"`
	// HasSnapshot is false when the worker never shipped metrics (died
	// before its first round, or ran uninstrumented).
	HasSnapshot bool `json:"has_snapshot"`
	// SnapshotAtUS is the worker's uptime (µs) when its last shipped
	// snapshot was taken.
	SnapshotAtUS int64 `json:"snapshot_at_us"`
	// OffsetUS is the handshake-derived clock offset applied to this
	// worker's trace timestamps.
	OffsetUS int64 `json:"offset_us"`
	// RetainedEvents and DroppedEvents describe the worker's ring here.
	RetainedEvents int    `json:"retained_events"`
	DroppedEvents  uint64 `json:"dropped_events"`
}

// WritePostMortem flushes the flight recorder into dir: the merged
// metrics exposition (metrics.prom), the merged cluster trace
// (trace.json, DecodeChromeTrace-clean), the probe and federation state
// (probes.json), the GVT-round history (rounds.json), the coordinator's
// goroutine dump (goroutines.txt), and the profiling artifacts — the
// merged worker-labeled flame (flame.folded) plus per-worker folded
// stacks and shipped captures (worker-N.*). The dir is created if
// missing. reason records why the run died (nil for a user-requested
// dump of a live run). Every file is written atomically (temp + rename)
// and the content renders from retained state, so calling this twice —
// a double abort — rewrites identical artifacts instead of duplicating
// or truncating them.
func (co *Coordinator) WritePostMortem(dir string, reason error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("timewarp: post-mortem dir: %w", err)
	}
	write := func(name string, render func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return fmt.Errorf("timewarp: post-mortem %s: %w", name, err)
		}
		if err := profile.WriteFileAtomic(filepath.Join(dir, name), buf.Bytes()); err != nil {
			return fmt.Errorf("timewarp: post-mortem %s: %w", name, err)
		}
		return nil
	}

	if err := write("metrics.prom", func(w io.Writer) error {
		return co.cfg.Obs.WritePrometheus(w)
	}); err != nil {
		return err
	}
	sources := co.traceSources()
	if err := write("trace.json", func(w io.Writer) error {
		return obs.WriteMergedChromeTrace(w, sources)
	}); err != nil {
		return err
	}

	fd := co.fed
	fd.mu.Lock()
	probe := postMortemProbe{Coordinator: co.cfg.Probe.State()}
	if reason != nil {
		probe.Reason = reason.Error()
	}
	for i, src := range sources[1:] {
		probe.Workers = append(probe.Workers, postMortemWorker{
			Worker:         i,
			HasSnapshot:    fd.snapAtUS[i] >= 0,
			SnapshotAtUS:   max(fd.snapAtUS[i], 0),
			OffsetUS:       src.OffsetMicros,
			RetainedEvents: len(src.Events),
			DroppedEvents:  src.Dropped,
		})
	}
	rounds := append([]roundRecord(nil), fd.rounds...)
	fd.mu.Unlock()

	if err := write("probes.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(probe)
	}); err != nil {
		return err
	}
	if err := write("rounds.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if rounds == nil {
			rounds = []roundRecord{}
		}
		return enc.Encode(rounds)
	}); err != nil {
		return err
	}
	if err := write(profile.GoroutinesFile, func(w io.Writer) error {
		_, err := w.Write(coordGoroutineDump())
		return err
	}); err != nil {
		return err
	}
	return co.WriteProfiles(dir)
}
