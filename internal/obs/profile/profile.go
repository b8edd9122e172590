// Package profile is the continuous-profiling layer over the obs span
// tracer: it aggregates the span hierarchy into deterministic self/total
// time tables keyed by (cluster, phase), renders them as folded-stack
// text (the flamegraph.pl / speedscope input format), and labels
// goroutines for the stdlib CPU profiler, which the monitoring server's
// /debug/pprof routes hand out on request. Zero dependencies: the labels
// are runtime/pprof's, everything else is plain text over the obs event
// model.
//
// The paper's argument is a time-attribution claim — speedup lives or
// dies on where wall-clock time goes (gate evaluation vs. rollback and
// re-execution vs. GVT waits) — and this package is what turns the
// span tracer's raw intervals into that attribution, per cluster: Build
// over a trace ring is the one self-time computation, whoever asks (the
// run report, a flame file, the coordinator's per-worker flames).
package profile

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// PhaseStat is one row of the flat attribution table: every span named
// Phase on Track, regardless of nesting position, folded into one entry.
type PhaseStat struct {
	Track   int32
	Phase   string
	Count   int64
	SelfUS  int64 // duration minus enclosed child spans, clamped at zero
	TotalUS int64 // wall duration including children
}

// StackStat is one folded stack: the ';'-joined frame path (track name
// first, then the span nesting) and the self time attributed to exactly
// that path.
type StackStat struct {
	Stack  string
	Count  int64
	SelfUS int64
}

// Table is the deterministic profile of one trace: the flat per-(track,
// phase) table and the nested folded stacks, both sorted.
type Table struct {
	Phases []PhaseStat
	Stacks []StackStat
}

// Build computes the profile of a span set. Only complete spans
// (PhaseSpan) contribute. The computation is deterministic for a given
// event multiset: spans are grouped by track and swept in (start, -dur,
// name) order with an interval-nesting stack, so a span fully enclosed
// by another is attributed as its child and subtracted from the parent's
// self time. Overlapping-but-not-nested spans (concurrent emitters on a
// shared track) degrade gracefully: each is charged its own duration.
func Build(events []obs.Event) *Table {
	type span struct {
		ts, dur int64
		name    string
	}
	byTrack := make(map[int32][]span)
	for _, e := range events {
		if e.Phase != obs.PhaseSpan {
			continue
		}
		dur := e.Dur
		if dur < 0 {
			dur = 0
		}
		byTrack[e.Track] = append(byTrack[e.Track], span{ts: e.Ts, dur: dur, name: e.Name})
	}
	tracks := make([]int32, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })

	phaseAgg := make(map[string]*PhaseStat)
	stackAgg := make(map[string]*StackStat)
	var phaseOrder, stackOrder []string

	for _, tr := range tracks {
		spans := byTrack[tr]
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
			name    string
			end     int64
			dur     int64
			childUS int64
		}
		var stack []frame
		root := obs.TrackName(tr)
		pop := func() {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			var b strings.Builder
			b.WriteString(root)
			for _, anc := range stack {
				b.WriteByte(';')
				b.WriteString(anc.name)
			}
			b.WriteByte(';')
			b.WriteString(f.name)
			path := b.String()
			self := f.dur - f.childUS
			if self < 0 {
				self = 0
			}
			ss, ok := stackAgg[path]
			if !ok {
				ss = &StackStat{Stack: path}
				stackAgg[path] = ss
				stackOrder = append(stackOrder, path)
			}
			ss.Count++
			ss.SelfUS += self
			pk := root + "\x00" + f.name
			ps, ok := phaseAgg[pk]
			if !ok {
				ps = &PhaseStat{Track: tr, Phase: f.name}
				phaseAgg[pk] = ps
				phaseOrder = append(phaseOrder, pk)
			}
			ps.Count++
			ps.SelfUS += self
			ps.TotalUS += f.dur
			if len(stack) > 0 {
				stack[len(stack)-1].childUS += f.dur
			}
		}
		for _, s := range spans {
			// A retained frame is this span's ancestor only if it encloses
			// it; with ts-ascending order that reduces to ending no earlier.
			// Anything ending sooner — disjoint or merely overlapping — is
			// finished and pops.
			for len(stack) > 0 && stack[len(stack)-1].end < s.ts+s.dur {
				pop()
			}
			stack = append(stack, frame{name: s.name, end: s.ts + s.dur, dur: s.dur})
		}
		for len(stack) > 0 {
			pop()
		}
	}

	t := &Table{
		Phases: make([]PhaseStat, 0, len(phaseOrder)),
		Stacks: make([]StackStat, 0, len(stackOrder)),
	}
	for _, k := range phaseOrder {
		t.Phases = append(t.Phases, *phaseAgg[k])
	}
	for _, k := range stackOrder {
		t.Stacks = append(t.Stacks, *stackAgg[k])
	}
	sort.Slice(t.Phases, func(i, j int) bool {
		if t.Phases[i].Track != t.Phases[j].Track {
			return t.Phases[i].Track < t.Phases[j].Track
		}
		return t.Phases[i].Phase < t.Phases[j].Phase
	})
	sort.Slice(t.Stacks, func(i, j int) bool { return t.Stacks[i].Stack < t.Stacks[j].Stack })
	return t
}

// AppendFolded renders the table's stacks as folded-stack text: one
// "frame;frame;frame value" line per stack, value = self microseconds.
// A non-empty prefix becomes the root frame of every stack — the
// coordinator labels each worker's stacks "worker N" this way before
// merging. Output is sorted, so equal tables render identically.
func (t *Table) AppendFolded(dst []byte, prefix string) []byte {
	for _, s := range t.Stacks {
		if prefix != "" {
			dst = append(dst, prefix...)
			dst = append(dst, ';')
		}
		dst = append(dst, s.Stack...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, s.SelfUS, 10)
		dst = append(dst, '\n')
	}
	return dst
}

// String renders the flat phase table, widest self time first — the
// human-readable companion of the folded export.
func (t *Table) String() string {
	rows := append([]PhaseStat(nil), t.Phases...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfUS != rows[j].SelfUS {
			return rows[i].SelfUS > rows[j].SelfUS
		}
		if rows[i].Track != rows[j].Track {
			return rows[i].Track < rows[j].Track
		}
		return rows[i].Phase < rows[j].Phase
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-20s %8s %12s %12s\n", "track", "phase", "count", "self µs", "total µs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-20s %8d %12d %12d\n",
			obs.TrackName(r.Track), r.Phase, r.Count, r.SelfUS, r.TotalUS)
	}
	return b.String()
}

// maxFoldedLine bounds one folded line; a longer line is garbage, not a
// stack.
const maxFoldedLine = 64 << 10

// ParseFolded parses folded-stack text back into stacks. The format is
// validated strictly — every non-blank line must be "stack value" with a
// non-empty ';'-separated stack of non-empty frames and a non-negative
// integer value — so obscheck can gate generated artifacts on it.
func ParseFolded(data []byte) ([]StackStat, error) {
	var out []StackStat
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		if len(line) == 0 {
			continue
		}
		if len(line) > maxFoldedLine {
			return nil, fmt.Errorf("profile: folded line %d exceeds %d bytes", lineNo, maxFoldedLine)
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp <= 0 || sp == len(line)-1 {
			return nil, fmt.Errorf("profile: folded line %d: want \"stack value\", got %q", lineNo, line)
		}
		val, err := strconv.ParseInt(string(line[sp+1:]), 10, 64)
		if err != nil || val < 0 {
			return nil, fmt.Errorf("profile: folded line %d: bad value %q", lineNo, line[sp+1:])
		}
		stackStr := string(line[:sp])
		for _, frame := range strings.Split(stackStr, ";") {
			if frame == "" {
				return nil, fmt.Errorf("profile: folded line %d: empty frame in %q", lineNo, stackStr)
			}
		}
		out = append(out, StackStat{Stack: stackStr, Count: 1, SelfUS: val})
	}
	return out, nil
}

// ValidateFolded checks folded-stack text and returns the stack count —
// the obscheck -folded entry point. Empty input is an error: a profile
// artifact with no stacks means the pipeline that produced it is broken.
func ValidateFolded(data []byte) (stacks int, err error) {
	ss, err := ParseFolded(data)
	if err != nil {
		return 0, err
	}
	if len(ss) == 0 {
		return 0, fmt.Errorf("profile: folded input holds no stacks")
	}
	return len(ss), nil
}

// MergeFolded renders one folded document from several labeled stack
// sets: each source's stacks are rooted under its prefix, equal paths
// are summed, and the result is sorted. This is the coordinator's merged
// worker-labeled flame.
func MergeFolded(dst []byte, sources []FoldedSource) []byte {
	agg := make(map[string]int64)
	for _, src := range sources {
		for _, s := range src.Stacks {
			path := s.Stack
			if src.Prefix != "" {
				path = src.Prefix + ";" + path
			}
			agg[path] += s.SelfUS
		}
	}
	paths := make([]string, 0, len(agg))
	for p := range agg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		dst = append(dst, p...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, agg[p], 10)
		dst = append(dst, '\n')
	}
	return dst
}

// FoldedSource is one labeled contribution to MergeFolded.
type FoldedSource struct {
	Prefix string
	Stacks []StackStat
}

// Do runs fn with pprof goroutine labels (mode, cluster, phase)
// attached, so /debug/pprof/profile CPU samples taken while fn runs
// attribute to the cluster and phase — per-cluster CPU attribution from
// the stdlib profiler, no new dependency. The kernel wraps each cluster
// goroutine and the watcher in it; the distributed worker and the
// pre-simulation campaign pool do the same under their own modes.
func Do(mode string, track int32, phase string, fn func()) {
	pprof.Do(context.Background(),
		pprof.Labels("mode", mode, "cluster", obs.TrackName(track), "phase", phase),
		func(context.Context) { fn() })
}
