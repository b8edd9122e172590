package timewarp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"

	"repro/internal/obs"
)

// The coordinator's flight recorder: everything below renders from the
// state the coordinator already retains (its own trace ring, coordFed's
// per-worker rings and clock offsets, and its registry, whose tw_* series
// hold the counters each worker last reported), so a
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
// view plus the per-worker trace state at the moment of death.
type postMortemProbe struct {
	Reason      string             `json:"reason"`
	Coordinator ProbeState         `json:"coordinator"`
	Workers     []postMortemWorker `json:"workers"`
}

type postMortemWorker struct {
	Worker int `json:"worker"`
	// OffsetUS is the handshake-derived clock offset applied to this
	// worker's trace timestamps.
	OffsetUS int64 `json:"offset_us"`
	// RetainedEvents and DroppedEvents describe the worker's ring here.
	RetainedEvents int    `json:"retained_events"`
	DroppedEvents  uint64 `json:"dropped_events"`
}

// WritePostMortem flushes the flight recorder into dir: the coordinator's
// metrics exposition (metrics.prom), the merged cluster trace
// (trace.json, DecodeChromeTrace-clean; its coordinator process holds
// the gvt_round spans, the round history), the probe and trace state
// (probes.json) and the coordinator's goroutine dump
// (goroutines.txt). The dir is created if missing. reason records why
// the run died (nil for a user-requested dump of a live run). Every file
// is written atomically (temp + rename) and the content renders from
// retained state, so calling this twice — a double abort — rewrites
// identical artifacts instead of duplicating or truncating them.
func (co *Coordinator) WritePostMortem(dir string, reason error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("timewarp: post-mortem dir: %w", err)
	}
	write := func(name string, render func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return fmt.Errorf("timewarp: post-mortem %s: %w", name, err)
		}
		if err := writeFileAtomic(filepath.Join(dir, name), buf.Bytes()); err != nil {
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

	probe := postMortemProbe{Coordinator: co.cfg.Probe.State()}
	if reason != nil {
		probe.Reason = reason.Error()
	}
	for i, src := range sources[1:] {
		probe.Workers = append(probe.Workers, postMortemWorker{
			Worker:         i,
			OffsetUS:       src.OffsetMicros,
			RetainedEvents: len(src.Events),
			DroppedEvents:  src.Dropped,
		})
	}

	if err := write("probes.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(probe)
	}); err != nil {
		return err
	}
	// The coordinator's own goroutine dump: a wedged distributed run
	// usually wedges the coordinator's round loop too, and the dump shows
	// where. A worker's is asked of the worker, at its -serve address.
	return write("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 1)
	})
}

// writeFileAtomic writes data to path via a temp file and rename, so
// readers never observe a partial file and a repeated write (a double
// abort) is idempotent at every instant.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
