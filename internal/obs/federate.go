package obs

import (
	"sort"
	"strconv"
	"strings"
)

// Metrics federation: a registry-side merge of external (per-worker)
// snapshots under an injected label. The distributed coordinator decodes
// each worker's shipped snapshot (the wire codec lives with the rest of
// the control-plane payloads in internal/timewarp) and installs it with
// SetExternal, so one /metrics scrape, one Snapshot and one Report cover
// the whole multi-process run.

// Kind classifies a metric family for exposition typing, carried in every
// snapshot so a merged dump can emit correct TYPE lines.
type Kind byte

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Family is one metric family's metadata: the base name (histogram
// samples carry suffixed names), its help string, and its type.
type Family struct {
	Name string
	Help string
	Kind Kind
}

// SetExternal installs (or replaces) the sample set of one external
// source, distinguished by an injected label — the coordinator calls
// SetExternal("worker", "0", snap) as worker snapshots arrive. External
// samples are merged into Snapshot, WritePrometheus and Report with the
// label inserted in key-sorted position, so the merged output is
// deterministic regardless of snapshot arrival order. A nil registry
// ignores the call.
func (r *Registry) SetExternal(labelKey, labelValue string, s Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.external == nil {
		r.external = make(map[string]externalSource)
	}
	r.external[labelKey+"\x00"+labelValue] = externalSource{
		key: labelKey, value: labelValue, snap: s,
	}
}

// externalSource is one federated snapshot held by the registry.
type externalSource struct {
	key, value string
	snap       Snapshot
}

// externalSorted returns the installed external sources sorted by
// (label key, label value) — the arrival-order-independent iteration
// every merged rendering uses. Caller must hold r.mu.
func (r *Registry) externalSorted() []externalSource {
	if len(r.external) == 0 {
		return nil
	}
	out := make([]externalSource, 0, len(r.external))
	for _, src := range r.external {
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].value < out[j].value
	})
	return out
}

// insertLabel inserts one label into an already-rendered label set,
// keeping the keys sorted so the merged identity is canonical. It parses
// the rendered form (written by renderLabels with %q) and re-renders.
func insertLabel(rendered, key, value string) string {
	ls := parseRenderedLabels(rendered)
	ls = append(ls, Label{Key: key, Value: value})
	return renderLabels(ls)
}

// parseRenderedLabels inverts renderLabels; malformed input (impossible
// for sets this package rendered) yields the parseable prefix.
func parseRenderedLabels(rendered string) []Label {
	if len(rendered) < 2 || rendered[0] != '{' {
		return nil
	}
	s := rendered[1 : len(rendered)-1]
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return out
		}
		key := s[:eq]
		rest := s[eq+1:]
		// Find the closing quote, honouring backslash escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return out
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return out
		}
		out = append(out, Label{Key: key, Value: val})
		s = rest[end+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out
}
