package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// The one Chrome-trace writer: it folds any number of trace rings into
// one file, one process track per source. The distributed coordinator
// passes its own ring plus every worker's shipped events, worker clocks
// rebased onto its own via the handshake-exchanged start timestamps; a
// single-process trace is the one-source call (Observer.WriteChromeTrace).

// TraceSource is one process's contribution to a merged trace.
type TraceSource struct {
	// Name labels the process track in the viewer ("coordinator",
	// "worker 0", ...). An unnamed source gets no process metadata — the
	// shape of a single-process trace.
	Name string
	// OffsetMicros rebases this source's event timestamps onto the merged
	// trace's clock: merged Ts = event Ts + OffsetMicros. The coordinator
	// derives it from the start wall clocks exchanged in the handshake.
	OffsetMicros int64
	// Events is the source's trace ring in push order.
	Events []Event
	// Dropped is how many events the source's ring overwrote (or lost in
	// transit); the per-source counts sum into the merged header.
	Dropped uint64
}

// WriteMergedChromeTrace writes one Chrome trace covering several
// processes: source i becomes pid i+1 with a process_name metadata
// record, each with its own per-track thread names, and every event's
// timestamp rebased by its source's offset (clamped at zero — the
// viewer rejects negative timestamps). It is the only place an Event
// becomes a ChromeEvent; the output round-trips through DecodeChromeTrace.
func WriteMergedChromeTrace(w io.Writer, sources []TraceSource) error {
	raw := []json.RawMessage{} // non-nil so an empty trace renders as []
	push := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		raw = append(raw, b)
		return nil
	}

	var dropped uint64
	for si, src := range sources {
		pid := si + 1
		dropped += src.Dropped
		if src.Name != "" {
			if err := push(map[string]any{
				"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
				"args": map[string]string{"name": src.Name},
			}); err != nil {
				return err
			}
			if err := push(map[string]any{
				"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
				"args": map[string]int{"sort_index": si},
			}); err != nil {
				return err
			}
		}

		// Thread-name metadata for every distinct track, emitted first and in
		// sorted tid order so the file is deterministic for a fixed event set.
		tracks := map[int32]bool{}
		for _, e := range src.Events {
			tracks[e.Track] = true
		}
		ids := make([]int32, 0, len(tracks))
		for t := range tracks {
			ids = append(ids, t)
		}
		sort.Slice(ids, func(i, j int) bool { return ChromeTid(ids[i]) < ChromeTid(ids[j]) })
		for _, t := range ids {
			if err := push(map[string]any{
				"name": "thread_name", "ph": "M", "pid": pid, "tid": ChromeTid(t),
				"args": map[string]string{"name": TrackName(t)},
			}); err != nil {
				return err
			}
			if err := push(map[string]any{
				"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": ChromeTid(t),
				"args": map[string]int{"sort_index": ChromeTid(t)},
			}); err != nil {
				return err
			}
		}

		for _, e := range src.Events {
			ts := e.Ts + src.OffsetMicros
			if ts < 0 {
				ts = 0
			}
			ce := ChromeEvent{
				Name:  e.Name,
				Phase: string(e.Phase),
				Pid:   pid,
				Tid:   ChromeTid(e.Track),
				Ts:    ts,
				Dur:   e.Dur,
			}
			if e.Phase == PhaseInstant {
				ce.Scope = "t" // thread-scoped instant
			}
			if e.Phase == PhaseFlowStart || e.Phase == PhaseFlowStep {
				// Flow events bind on (cat, name, id): every link of one causal
				// chain (e.g. a rollback cascade) shares the origin id.
				ce.Cat = "flow"
				ce.ID = e.ID
			}
			for _, a := range e.Args {
				if a.Key == "" {
					continue
				}
				if ce.Args == nil {
					ce.Args = make(map[string]float64, maxArgs)
				}
				ce.Args[a.Key] = a.Val
			}
			if err := push(ce); err != nil {
				return err
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTrace{
		TraceEvents:     raw,
		DisplayTimeUnit: "ms",
		Dropped:         dropped,
	})
}
