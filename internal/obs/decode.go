package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// DecodedTrace is the parsed form of a Chrome trace-event file, used by
// the validation tests (and usable by external tooling) to assert trace
// structure: which tracks exist, which spans and counter samples were
// recorded.
type DecodedTrace struct {
	// ThreadNames maps tid → thread_name metadata. Merged multi-process
	// traces may reuse a tid across pids; the last name written wins here —
	// use Events' Pid to separate processes.
	ThreadNames map[int]string
	// ProcessNames maps pid → process_name metadata (one entry per worker
	// in a merged cluster trace; empty for single-process traces, which
	// emit no process metadata).
	ProcessNames map[int]string
	// Events holds the non-metadata events in file order.
	Events []DecodedEvent
	// Dropped mirrors the exporter's ring-overwrite count.
	Dropped uint64
}

// DecodedEvent is one non-metadata trace event.
type DecodedEvent struct {
	Name  string
	Phase string
	Pid   int
	Tid   int
	Ts    int64
	Dur   int64
	Args  map[string]float64
}

// DecodeChromeTrace parses a trace file written by WriteChromeTrace. It
// fails on malformed JSON or events missing the required fields, making
// it a structural validator as well as a reader.
func DecodeChromeTrace(r io.Reader) (*DecodedTrace, error) {
	var ct ChromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return nil, fmt.Errorf("obs: trace container: %w", err)
	}
	out := &DecodedTrace{
		ThreadNames:  make(map[int]string),
		ProcessNames: make(map[int]string),
		Dropped:      ct.Dropped,
	}
	for i, raw := range ct.TraceEvents {
		var e struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Ts    int64          `json:"ts"`
			Dur   int64          `json:"dur"`
			Args  map[string]any `json:"args"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("obs: trace event %d: %w", i, err)
		}
		if e.Phase == "" {
			return nil, fmt.Errorf("obs: trace event %d: missing ph", i)
		}
		if e.Phase == "M" {
			switch e.Name {
			case "thread_name":
				if n, ok := e.Args["name"].(string); ok {
					out.ThreadNames[e.Tid] = n
				}
			case "process_name":
				if n, ok := e.Args["name"].(string); ok {
					out.ProcessNames[e.Pid] = n
				}
			}
			continue
		}
		de := DecodedEvent{Name: e.Name, Phase: e.Phase, Pid: e.Pid, Tid: e.Tid, Ts: e.Ts, Dur: e.Dur}
		for k, v := range e.Args {
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("obs: trace event %d: non-numeric arg %s", i, k)
			}
			if de.Args == nil {
				de.Args = make(map[string]float64)
			}
			de.Args[k] = f
		}
		out.Events = append(out.Events, de)
	}
	return out, nil
}

// CounterSeries extracts the ordered sample values of one counter by
// name (all tracks merged in file order).
func (d *DecodedTrace) CounterSeries(name string) []float64 {
	var out []float64
	for _, e := range d.Events {
		if e.Phase == "C" && e.Name == name {
			out = append(out, e.Args["value"])
		}
	}
	return out
}

// SpansNamed returns the complete spans with the given name.
func (d *DecodedTrace) SpansNamed(name string) []DecodedEvent {
	var out []DecodedEvent
	for _, e := range d.Events {
		if e.Phase == "X" && e.Name == name {
			out = append(out, e)
		}
	}
	return out
}
