package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestValidateRealExposition renders a registry exercising every metric
// kind and runs the full dump through the conformance validator.
func TestValidateRealExposition(t *testing.T) {
	o := New(Options{})
	o.Registry().Counter("tw_events_total", "committed events").Add(1234)
	o.Registry().Counter("tw_msgs_total", "messages", Label{"dir", "out"}).Add(9)
	o.Registry().Gauge("tw_gvt_cycles", "quiescent GVT").Set(88)
	o.Registry().SampleFunc("tw_inflight", "in-flight messages", func() float64 { return 2.5 })

	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("exposition not newline-terminated")
	}
	n, err := ValidatePrometheusText(data)
	if err != nil {
		t.Fatalf("validator rejects our own exposition: %v\n%s", err, data)
	}
	// counter + labelled counter + gauge + sampled gauge
	if n != 4 {
		t.Fatalf("samples = %d, want 4\n%s", n, data)
	}
	for _, want := range []string{
		"# HELP tw_events_total committed events",
		"# TYPE tw_events_total counter",
		"# TYPE tw_gvt_cycles gauge",
		"tw_inflight 2.5",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %q:\n%s", want, data)
		}
	}
}

func TestValidateAcceptsWellFormedEdgeCases(t *testing.T) {
	good := strings.Join([]string{
		`# HELP esc label escaping`,
		`# TYPE esc counter`,
		`esc{path="a\\b",msg="say \"hi\"",nl="a\nb"} 1`,
		`# TYPE ts gauge`,
		`ts 2.5 1700000000000`,
		`# TYPE empty_family summary`,
		`# TYPE h histogram`,
		`h_bucket{le="1"} 0`,
		`h_bucket{le="+Inf"} 2`,
		`h_sum 7`,
		`h_count 2`,
		``,
	}, "\n")
	n, err := ValidatePrometheusText([]byte(good))
	if err != nil {
		t.Fatalf("valid text rejected: %v", err)
	}
	if n != 6 {
		t.Fatalf("samples = %d, want 6", n)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"no trailing newline": "# TYPE a counter\na 1",
		"bad value":           "# TYPE a counter\na one\n",
		"sample before TYPE":  "a 1\n",
		"TYPE after sample":   "# TYPE a counter\na 1\n# TYPE a gauge\n",
		"bad type":            "# TYPE a widget\na 1\n",
		"unterminated label":  "# TYPE a counter\na{x=\"y 1\n",
		"bad label name":      "# TYPE a counter\na{0x=\"y\"} 1\n",
		"duplicate sample":    "# TYPE a counter\na 1\na 2\n",
		"bucket without le":   "# TYPE h histogram\nh_bucket 1\n",
		"bad timestamp":       "# TYPE a counter\na 1 soon\n",
		"bad metric name":     "# TYPE 9a counter\n9a 1\n",
		"missing value":       "# TYPE a counter\na\n",
	}
	for name, text := range cases {
		if _, err := ValidatePrometheusText([]byte(text)); err == nil {
			t.Errorf("%s: accepted invalid text %q", name, text)
		}
	}
}

// TestValidateGoldenFixtureStillPasses re-checks a dump of the golden
// test's shape (a family of several label sets registered out of order)
// against the validator — conformance and the golden file must not drift
// apart.
func TestValidateGoldenFixtureStillPasses(t *testing.T) {
	o := New(Options{})
	o.Registry().Counter("events_total", "total events").Add(5)
	g := o.Registry().Gauge("gvt", "global virtual time")
	g.Set(42)
	o.Registry().Gauge("depth", "rollback depth", L("cluster", 1)).Set(5)
	o.Registry().Gauge("depth", "rollback depth", L("cluster", 0)).Set(1)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePrometheusText(buf.Bytes()); err != nil {
		t.Fatalf("golden-style dump rejected: %v\n%s", err, buf.String())
	}
}
