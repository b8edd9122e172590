package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("k", "b", "cut")
	tb.AddRow(2, 2.5, 2428)
	tb.AddRow(2, 12.5, 598)
	out := tb.String()
	if !strings.Contains(out, "k") || !strings.Contains(out, "2428") {
		t.Errorf("table output wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("got %d lines", len(lines))
	}
	if !strings.Contains(out, "2.5") || strings.Contains(out, "2.50") {
		t.Errorf("float trimming wrong:\n%s", out)
	}
}
