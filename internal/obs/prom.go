package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the current registry state in the Prometheus
// text exposition format: one HELP/TYPE block per metric family, then
// one line per sample, sorted — so two equal registry states render to
// byte-identical dumps (the property the golden metrics tests pin).
// Histogram buckets are ordered by their numeric le bound, +Inf last.
// Sampled funcs are exposed as gauges. Nil observers write nothing.
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.reg.WritePrometheus(w)
}

// WritePrometheus renders the registry (see Observer.WritePrometheus).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	fams := make(map[string]Family, len(snap.Families))
	for _, f := range snap.Families {
		fams[f.Name] = f
	}

	type group struct {
		fam     Family
		samples []Sample
	}
	groups := map[string]*group{}
	var order []string
	for _, sm := range snap.Samples {
		fam, ok := sampleFamily(sm.Name, fams)
		if !ok {
			fam = Family{Name: sm.Name, Kind: KindGauge}
		}
		g := groups[fam.Name]
		if g == nil {
			g = &group{fam: fam}
			groups[fam.Name] = g
			order = append(order, fam.Name)
		}
		g.samples = append(g.samples, sm)
	}

	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		g := groups[name]
		if g.fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", g.fam.Name, g.fam.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", g.fam.Name, g.fam.Kind)
		sort.SliceStable(g.samples, func(i, j int) bool {
			return promSampleLess(g.samples[i], g.samples[j])
		})
		for _, sm := range g.samples {
			fmt.Fprintf(&b, "%s%s %s\n", sm.Name, sm.Labels, formatValue(sm.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sampleFamily resolves a sample name to its family: exact match first,
// then the histogram component suffixes against a histogram family.
func sampleFamily(name string, fams map[string]Family) (Family, bool) {
	if f, ok := fams[name]; ok {
		return f, true
	}
	for _, suffix := range []string{"_bucket", "_count", "_sum"} {
		if base, found := strings.CutSuffix(name, suffix); found {
			if f, ok := fams[base]; ok && f.Kind == KindHistogram {
				return f, true
			}
		}
	}
	return Family{}, false
}

// promSampleLess orders samples within one family block: by suffixed
// name, then by the label set without le, then by the le bound compared
// numerically — so each sub-histogram's buckets are contiguous and come
// out in ascending bound order with +Inf last, not in lexicographic
// accident ("10" before "2").
func promSampleLess(a, b Sample) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	ar, ale, aok := splitLe(a.Labels)
	br, ble, bok := splitLe(b.Labels)
	if aok && bok {
		if ar != br {
			return ar < br
		}
		return ale < ble
	}
	return a.Labels < b.Labels
}

// splitLe extracts the numeric le bound from a rendered label set,
// returning the set re-rendered without it. ok is false when no parsable
// le label is present.
func splitLe(rendered string) (rest string, le float64, ok bool) {
	if !strings.Contains(rendered, `le="`) {
		return rendered, 0, false
	}
	ls := parseRenderedLabels(rendered)
	kept := ls[:0]
	for _, l := range ls {
		if l.Key != "le" {
			kept = append(kept, l)
			continue
		}
		if l.Value == "+Inf" {
			le, ok = math.Inf(1), true
			continue
		}
		v, err := strconv.ParseFloat(l.Value, 64)
		if err != nil {
			return rendered, 0, false
		}
		le, ok = v, true
	}
	if !ok {
		return rendered, 0, false
	}
	return renderLabels(kept), le, true
}

// formatValue renders a sample value: integers without a decimal point,
// everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
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
