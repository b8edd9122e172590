package repro

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// elabSizes are the decoders elaboration is measured on: the default
// workload, seven times it, and ROADMAP item 11's configuration — the scale
// of the paper's 1.2 M-gate Viterbi decoder.
var elabSizes = []struct {
	name string
	cfg  gen.ViterbiConfig
}{
	{"17k6", gen.DefaultViterbi},
	{"121k", gen.ViterbiConfig{K: 9, W: 8, TB: 64}},
	{"728k", gen.ViterbiConfig{K: 11, W: 12, TB: 96}},
}

// TestScaleSmoke takes the 728,121-gate decoder through the front end
// (parse, elaborate, validate, levelize, build a simulator) and holds
// elaboration to a linear cost with a small constant: at most 1.5 s and 4
// allocations a gate there (2.82 s and 15.7 before PR 28), with ns and
// bytes a gate at three sizes side by side. Half a gigabyte and some
// seconds, so only `make scale-smoke` (SCALE=1) runs it.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("SCALE") != "1" {
		t.Skip("set SCALE=1 (make scale-smoke) to elaborate the 728,121-gate decoder")
	}
	for _, sz := range elabSizes {
		c := gen.Viterbi(sz.cfg)
		start := time.Now()
		d, err := verilog.Parse(c.Source)
		if err != nil {
			t.Fatal(err)
		}
		parse := time.Since(start)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start = time.Now()
		ed, err := elab.Elaborate(d, c.Top)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		gates := float64(len(ed.Netlist.Gates))
		allocs := float64(after.Mallocs - before.Mallocs)
		t.Logf("%s: %7.0f gates %6d instances: parse %6.1f ms, elaborate %7.1f ms = %4.0f ns/gate, %4.0f B/gate, %.3f allocs/gate",
			sz.name, gates, len(ed.Instances), float64(parse.Microseconds())/1e3, float64(took.Microseconds())/1e3,
			float64(took.Nanoseconds())/gates, float64(after.TotalAlloc-before.TotalAlloc)/gates, allocs/gates)
		if sz.name != "728k" {
			continue
		}
		if took > 1500*time.Millisecond || allocs > 4*gates {
			t.Errorf("elaborating %.0f gates took %v and %.2f allocations a gate, want at most 1.5 s and 4", gates, took, allocs/gates)
		}
		if err := ed.Netlist.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := ed.Netlist.Levels(); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.New(ed.Netlist); err != nil {
			t.Fatal(err)
		}
	}
}
