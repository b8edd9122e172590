package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report renders a human-readable run summary: uptime, every counter and
// gauge grouped by family, histogram shapes, trace-ring occupancy, and
// per-track event counts — the "what happened in this run" view for
// terminals, complementing the machine-readable exporters.
func (o *Observer) Report() string {
	if o == nil {
		return "observability disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "observability report (uptime %v)\n", o.Uptime().Round(time.Millisecond))

	snap := o.reg.Snapshot()
	// Group samples by family name; histogram expansions keep their
	// suffixed names, which reads fine in a flat listing.
	if len(snap.Samples) > 0 {
		b.WriteString("metrics:\n")
		width := 0
		for _, s := range snap.Samples {
			if n := len(s.Name + s.Labels); n > width {
				width = n
			}
		}
		for _, s := range snap.Samples {
			fmt.Fprintf(&b, "  %-*s %s\n", width, s.Name+s.Labels, formatValue(s.Value))
		}
	} else {
		b.WriteString("metrics: none registered\n")
	}

	events, dropped := o.Events()
	fmt.Fprintf(&b, "trace: %d events retained, %d dropped by ring overwrite\n", len(events), dropped)
	if len(events) > 0 {
		perTrack := map[int32]int{}
		spanDur := map[int32]time.Duration{}
		for _, e := range events {
			perTrack[e.Track]++
			if e.Phase == PhaseSpan {
				spanDur[e.Track] += time.Duration(e.Dur) * time.Microsecond
			}
		}
		ids := make([]int32, 0, len(perTrack))
		for t := range perTrack {
			ids = append(ids, t)
		}
		sort.Slice(ids, func(i, j int) bool { return ChromeTid(ids[i]) < ChromeTid(ids[j]) })
		for _, t := range ids {
			fmt.Fprintf(&b, "  %-14s %6d events, %v in spans\n",
				TrackName(t), perTrack[t], spanDur[t].Round(time.Microsecond))
		}
	}

	o.mu.Lock()
	sections := append([]reportSection(nil), o.sections...)
	o.mu.Unlock()
	for _, s := range sections {
		fmt.Fprintf(&b, "-- %s --\n", s.title)
		out := s.render()
		b.WriteString(out)
		if out != "" && !strings.HasSuffix(out, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
