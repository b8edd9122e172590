package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// WritePrometheus renders the current registry state in the Prometheus
// text exposition format: one HELP/TYPE block per metric family, then
// one line per sample, sorted — so two equal registry states render to
// byte-identical dumps (the property the golden metrics tests pin).
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
	var b strings.Builder
	for _, f := range r.Snapshot().Families {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sm := range f.Samples {
			fmt.Fprintf(&b, "%s%s %s\n", sm.Name, sm.Labels, formatValue(sm.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a sample value: integers without a decimal point,
// everything else via %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
