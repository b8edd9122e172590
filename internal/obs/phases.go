package obs

import (
	"context"
	"runtime/pprof"
	"sort"
)

// Where a run's wall clock went — the paper's speedup lives or dies on
// it — is answered twice, from two instruments: Phases attributes the
// trace ring's spans per (track, phase), and Labeled tags goroutines so
// the stdlib CPU profiler attributes its samples the same way. A flame
// of the spans is the Chrome trace itself, opened in Perfetto or
// speedscope.

// PhaseStat is one row of the phase table: every span named Phase on
// Track, whatever its nesting position, folded into one entry.
type PhaseStat struct {
	Track   int32
	Phase   string
	Count   int64
	SelfUS  int64 // duration minus the spans it encloses, clamped at zero
	TotalUS int64 // wall duration including enclosed spans
}

// Phases computes the per-(track, phase) self/total table of a span set:
// tracks in trace-viewer order (ChromeTid), within a track widest self
// time first, then by phase. Only complete spans (PhaseSpan) contribute.
// Spans are grouped by track and swept in (start, -dur, name) order with
// an interval-nesting stack, so a span fully enclosed by another is its
// child and is subtracted from the parent's self time: a track's self
// times sum to the wall time its outermost spans cover. Overlapping but
// not nested spans (concurrent emitters on a shared track) each keep
// their own duration. The result depends only on the event multiset.
func Phases(events []Event) []PhaseStat {
	type span struct {
		ts, dur int64
		name    string
	}
	byTrack := make(map[int32][]span)
	for _, e := range events {
		if e.Phase == PhaseSpan {
			byTrack[e.Track] = append(byTrack[e.Track], span{ts: e.Ts, dur: max(e.Dur, 0), name: e.Name})
		}
	}

	var rows []PhaseStat
	for track, spans := range byTrack {
		sort.Slice(spans, func(i, j int) bool {
			a, b := spans[i], spans[j]
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			if a.dur != b.dur {
				return a.dur > b.dur // wider first: parent before child
			}
			return a.name < b.name
		})
		type frame struct {
			span
			childUS int64
		}
		row := make(map[string]int) // phase → index into rows
		var stack []frame
		pop := func() {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			i, ok := row[f.name]
			if !ok {
				i = len(rows)
				row[f.name] = i
				rows = append(rows, PhaseStat{Track: track, Phase: f.name})
			}
			rows[i].Count++
			rows[i].SelfUS += max(f.dur-f.childUS, 0)
			rows[i].TotalUS += f.dur
			if len(stack) > 0 {
				stack[len(stack)-1].childUS += f.dur
			}
		}
		for _, s := range spans {
			// A retained frame is this span's ancestor only if it encloses
			// it; with ts-ascending order that reduces to ending no earlier.
			// Anything ending sooner — disjoint or merely overlapping — is
			// finished and pops.
			for len(stack) > 0 && stack[len(stack)-1].ts+stack[len(stack)-1].dur < s.ts+s.dur {
				pop()
			}
			stack = append(stack, frame{span: s})
		}
		for len(stack) > 0 {
			pop()
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if ti, tj := ChromeTid(rows[i].Track), ChromeTid(rows[j].Track); ti != tj {
			return ti < tj
		}
		if rows[i].SelfUS != rows[j].SelfUS {
			return rows[i].SelfUS > rows[j].SelfUS
		}
		return rows[i].Phase < rows[j].Phase
	})
	return rows
}

// Labeled runs fn with pprof goroutine labels (mode, cluster, phase)
// attached, so /debug/pprof/profile CPU samples taken while fn runs
// attribute to the cluster and phase. The kernel wraps each cluster
// goroutine and the watcher in it; the distributed worker and the
// pre-simulation campaign pool do the same under their own modes.
func Labeled(mode string, track int32, phase string, fn func()) {
	pprof.Do(context.Background(),
		pprof.Labels("mode", mode, "cluster", TrackName(track), "phase", phase),
		func(context.Context) { fn() })
}
