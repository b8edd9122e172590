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
// state the coordinator already retains (its own trace ring, coordFed's
// per-worker rings and clock offsets, and the federated registry), so a
// post-mortem bundle can be written at the instant of an abort with no
// further collection — the workers may already be dead.

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

// roundRecord is one GVT round's outcome, an entry of the post-mortem
// bundle's rounds.json.
type roundRecord struct {
	Round       uint64 `json:"round"`
	GVT         uint64 `json:"gvt"`
	MinProgress uint64 `json:"min_progress"`
	Frozen      bool   `json:"frozen"`
	Drained     bool   `json:"drained"`
	LatencyUS   int64  `json:"latency_us"`
	UptimeUS    int64  `json:"uptime_us"` // coordinator observer clock at the round's start
}

// roundsKept bounds rounds.json to the most recent rounds.
const roundsKept = 512

// roundHistory reads the GVT-round history back out of the coordinator's
// trace ring: one record per gvt_round span, the last roundsKept of them.
func roundHistory(events []obs.Event) []roundRecord {
	rounds := []roundRecord{} // non-nil so an empty history renders as []
	for _, e := range events {
		if e.Phase != obs.PhaseSpan || e.Name != "gvt_round" {
			continue
		}
		r := roundRecord{LatencyUS: e.Dur, UptimeUS: e.Ts}
		for _, a := range e.Args {
			switch a.Key {
			case "round":
				r.Round = uint64(a.Val)
			case "gvt":
				r.GVT = uint64(a.Val)
			case "min_progress":
				r.MinProgress = uint64(a.Val)
			case "frozen":
				r.Frozen = a.Val != 0
			case "drained":
				r.Drained = a.Val != 0
			}
		}
		rounds = append(rounds, r)
	}
	return rounds[max(len(rounds)-roundsKept, 0):]
}

// WritePostMortem flushes the flight recorder into dir: the merged
// metrics exposition (metrics.prom), the merged cluster trace
// (trace.json, DecodeChromeTrace-clean), the probe and federation state
// (probes.json), the GVT-round history (rounds.json, read back from the
// coordinator's gvt_round spans), the coordinator's goroutine dump
// (goroutines.txt), and the phase flames — the merged worker-labeled one
// (flame.folded) plus per-worker folded stacks (worker-N.flame.folded).
// The dir is created if
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
		return enc.Encode(roundHistory(sources[0].Events))
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
