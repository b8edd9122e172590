package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// ChromeEvent is one entry of the Chrome trace-event JSON format
// (exported so the validation tests and external tooling can decode the
// files this package writes).
type ChromeEvent struct {
	Name  string             `json:"name"`
	Phase string             `json:"ph"`
	Pid   int                `json:"pid"`
	Tid   int                `json:"tid"`
	Ts    int64              `json:"ts"`
	Dur   int64              `json:"dur,omitempty"`
	Scope string             `json:"s,omitempty"`
	Args  map[string]float64 `json:"args,omitempty"`
}

// ChromeTrace is the container object the exporter writes: loadable by
// chrome://tracing and Perfetto.
type ChromeTrace struct {
	TraceEvents     []json.RawMessage `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	// Dropped is the number of trace events lost to ring overwrite.
	Dropped uint64 `json:"droppedEvents,omitempty"`
}

// ChromeTid maps a tracer track to a Chrome thread id: cluster tracks
// keep their id (0..k-1), subsystem tracks map above 1000 so they sort
// below the clusters in the viewer.
func ChromeTid(track int32) int {
	if track >= 0 {
		return int(track)
	}
	return 1000 + int(-track-1) // TrackKernel → 1000, TrackPartition → 1001, …
}

// TrackName is the one name of a track: the thread name in a trace
// viewer, the "cluster" pprof label and the row heading of the report
// and its phase table. Non-negative tracks are
// clusters ("cluster 3"), negative tracks the shared subsystem lanes.
func TrackName(track int32) string {
	switch track {
	case TrackKernel:
		return "kernel"
	case TrackPartition:
		return "partition"
	case TrackCampaign:
		return "campaign"
	case TrackComm:
		return "comm"
	}
	if track < 0 {
		return fmt.Sprintf("track%d", track)
	}
	return "cluster " + strconv.Itoa(int(track))
}

// WriteChromeTrace exports the trace ring as Chrome trace-event JSON:
// one metadata-named track per distinct tracer track (per-cluster tracks
// for the Time Warp kernel), spans as complete ("X") events, instants
// and counters as-is. Nil observers write an empty but valid trace.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	events, dropped := o.Events()
	return WriteMergedChromeTrace(w, []TraceSource{{Events: events, Dropped: dropped}})
}
