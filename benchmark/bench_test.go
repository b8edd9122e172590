package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &s
}

// TestSpecMatchesMetricTable holds BENCHMARK.json to the program's own
// table: same names in the same order, same units, directions and bounds,
// the four workloads, and names the driver accepts.
func TestSpecMatchesMetricTable(t *testing.T) {
	s := readSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed []specMetric
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		listed = append(listed, m)
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
		listed = append(listed, m)
	}
	if len(listed) != len(metrics) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the program's table has %d", len(listed), len(metrics))
	}
	for i, got := range listed {
		want := metrics[i]
		better := "lower"
		if want.higher {
			better = "higher"
		}
		if got.Name != want.name || got.Unit != want.unit || got.Better != better {
			t.Errorf("metric %d: BENCHMARK.json has %s [%s, %s], the table has %s [%s, %s]",
				i, got.Name, got.Unit, got.Better, want.name, want.unit, better)
		}
		if !want.layer && (got.Bound == nil || *got.Bound != want.bound) {
			t.Errorf("%s: bound differs from the table's %v", want.name, want.bound)
		}
		if want.layer != (i >= len(s.EndToEnd)) {
			t.Errorf("%s is listed under the wrong kind", want.name)
		}
		if !nameRE.MatchString(got.Name) {
			t.Errorf("metric name %q is not one the driver accepts", got.Name)
		}
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q needs the name %q and a one-line why of at most 200 characters", i, w.Name, workloadNames[i])
		}
	}
	if len(s.Paths) != 1 || s.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", s.Paths)
	}
}

// layersOf lists the per-layer metrics each workload must emit in a
// traced run: exactly the layers it runs, and no other.
func layersOf(workload string) map[string]bool {
	want := map[string]bool{}
	add := func(prefixes ...string) {
		for _, m := range metrics {
			for _, p := range prefixes {
				if m.layer && strings.HasPrefix(m.name, p) {
					want[m.name] = true
				}
			}
		}
	}
	add("verilog.", "elab.", "hypergraph.", "cone.", "fm.", "partition.", "clustersim.", "sim.", "host.", "harness.")
	switch workload {
	case "partition_campaign":
		add("multilevel.", "presim.")
		delete(want, "clustersim.modeled_over_real") // no real run to compare the model with
	case "soc_dist_split":
		add("timewarp.", "dist.")
	case "viterbi_tw_rollback":
		add("timewarp.", "obs.")
	default:
		add("timewarp.")
	}
	return want
}

// TestSmokeAllWorkloads runs the four workloads at smoke scale, untraced
// and traced, and checks what they emit against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	s := readSpec(t)
	start := time.Now()
	for _, traced := range []bool{false, true} {
		listed := s.EndToEnd
		if traced {
			listed = s.PerLayer
		}
		for _, name := range workloadNames {
			o := options{seed: 1, minReps: 2, setups: 1, trace: traced, scale: scaleSmoke, outDir: t.TempDir()}
			res, err := runWorkload(name, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if res.Repetitions != 2 {
				t.Errorf("%s: %d repetitions, want 2", name, res.Repetitions)
			}

			// What the report and the -json file hold: every applicable
			// metric once, with its unit, and nothing unnamed.
			want := map[string]bool{}
			if traced {
				want = layersOf(name)
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = true
				}
			}
			for _, m := range listed {
				v, emitted := res.Metrics[m.Name]
				if emitted != want[m.Name] {
					t.Errorf("%s traced=%v: metric %s emitted=%v, want %v", name, traced, m.Name, emitted, want[m.Name])
				}
				if emitted && v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, m.Name, v.Unit, m.Unit)
				}
				if emitted && !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, m.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d named for it", name, traced, len(res.Metrics), len(want))
			}

			// What the driver reads: exactly the listed names.
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted != res.Attempted || line.Failed != 0 || len(line.Metrics) != len(listed) {
				t.Errorf("%s traced=%v: driver line %+v does not match the result", name, traced, line)
			}
			for _, m := range listed {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: driver line lacks %s [%s]", name, traced, m.Name, m.Unit)
				}
			}

			if traced {
				checkStressedLayer(t, name, res)
				if _, err := os.Stat(o.outDir + "/trace-" + name + ".json"); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", name, err)
				}
			}
		}
	}
	// Tier-1 allows this package ten seconds; a hard limit here would only
	// make the test flaky under -race or on a loaded runner.
	t.Logf("eight smoke runs took %v", time.Since(start))
}

// checkStressedLayer asserts what makes each workload the one it is.
func checkStressedLayer(t *testing.T, name string, res *result) {
	t.Helper()
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	switch name {
	case "soc_tw_aligned":
		if v("partition.cut") != 0 || v("timewarp.messages") != 0 || v("timewarp.rolled_back_frac") != 0 {
			t.Errorf("%s must have cut 0, no messages and no rollbacks: %v", name, res.Metrics)
		}
	case "viterbi_tw_rollback", "soc_dist_split":
		if v("partition.cut") == 0 || v("timewarp.messages") == 0 {
			t.Errorf("%s must cut nets and send messages", name)
		}
	}
	if name == "soc_dist_split" && v("dist.wire_frames") == 0 {
		t.Errorf("%s moved no frame over the wire", name)
	}
}

func smokeDesign(t *testing.T) (*netlist.Netlist, *hypergraph.H, *partition.Result) {
	t.Helper()
	ed, err := gen.ViterbiSoC(smokeSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := hypergraph.BuildFlat(ed)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ed.Netlist, flat, pr
}

// TestOracleCountsCorruptedPartition: the partition checks pass on a
// partitioner's answer and fail on one moved or out-of-range gate.
func TestOracleCountsCorruptedPartition(t *testing.T) {
	_, flat, pr := smokeDesign(t)
	ck := &checker{}
	checkPartition(ck, "intact", flat, 2, 10, pr.GateParts, pr.Cut)
	if ck.attempted != 3 || ck.failed != 0 {
		t.Fatalf("intact partition: %d of %d failed: %v", ck.failed, ck.attempted, ck.failures)
	}

	// Move the driver of a multi-pin net to the other side: the reported
	// cut no longer matches the recount.
	moved := append([]int32(nil), pr.GateParts...)
	v := flat.Edges[0].Pins[0]
	moved[flat.Vertices[v].Gate] ^= 1
	ck = &checker{}
	checkPartition(ck, "moved", flat, 2, 10, moved, pr.Cut)
	if ck.failed == 0 {
		t.Error("a moved gate was not counted as a failure")
	}

	outside := append([]int32(nil), pr.GateParts...)
	outside[len(outside)/2] = 2
	ck = &checker{}
	checkPartition(ck, "outside", flat, 2, 10, outside, pr.Cut)
	if ck.attempted != 3 || ck.failed != 3 {
		t.Errorf("out-of-range part: %d of %d failed, want 3 of 3", ck.failed, ck.attempted)
	}
}

// TestOracleCountsFlippedWaveformBit: both waveform oracles pass on the
// sequential simulator's own output and fail when one bit is flipped.
func TestOracleCountsFlippedWaveformBit(t *testing.T) {
	nl, _, _ := smokeDesign(t)
	const cycles = 40
	state := stateNets(nl)
	want, _, err := runSeq(nl, sim.RandomVectors{Seed: 1}, cycles, state)
	if err != nil {
		t.Fatal(err)
	}
	copyWaves := func() map[netlist.NetID][]bool {
		c := make(map[netlist.NetID][]bool, len(want))
		for n, w := range want {
			c[n] = append([]bool(nil), w...)
		}
		return c
	}
	for _, flip := range []bool{false, true} {
		got := copyWaves()
		wantFailed := 0
		if flip {
			got[nl.POs[0]][cycles/2] = !got[nl.POs[0]][cycles/2]
			wantFailed = 1
		}
		ck := &checker{}
		checkKernelRun(ck, "digest", waveDigest(nl.POs, got), &timewarp.Result{FinalGVT: cycles}, waveDigest(nl.POs, want), cycles)
		if ck.attempted != 3 || ck.failed != wantFailed {
			t.Errorf("digest oracle, flipped=%v: %d of %d failed, want %d", flip, ck.failed, ck.attempted, wantFailed)
		}
		ck = &checker{}
		checkWaves(ck, "state", nl, state, got, want)
		if ck.attempted != 1 || ck.failed != wantFailed {
			t.Errorf("state oracle, flipped=%v: %d of %d failed, want %d", flip, ck.failed, ck.attempted, wantFailed)
		}
	}
}

// TestDeterminismGuard: a differing sample of an exact metric is a failed
// check that names both values.
func TestDeterminismGuard(t *testing.T) {
	s := samples{}
	s.add("partition.cut", 142)
	s.add("partition.cut", 142)
	s.add("pipeline_over_seq", 1)
	s.add("pipeline_over_seq", 3)
	ck := &checker{}
	if got := s.aggregate(ck); ck.failed != 0 || got["pipeline_over_seq"].Value != 2 {
		t.Fatalf("identical exact samples failed %d checks; median %v", ck.failed, got["pipeline_over_seq"].Value)
	}
	s.add("partition.cut", 143)
	ck = &checker{}
	s.aggregate(ck)
	if ck.failed != 1 || !strings.Contains(ck.failures[0], "142") || !strings.Contains(ck.failures[0], "143") {
		t.Errorf("differing cut: failures %v", ck.failures)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "pipeline", ID: 0, Parent: noSpan, Start: 0, End: 100 * ms},
		{Name: "dist.run", ID: 1, Parent: 0, Start: 10 * ms, End: 90 * ms},
		{Name: "dist.worker", ID: 2, Parent: 0, Track: 1, Start: 20 * ms, End: 80 * ms},
		{Name: "dist.worker", ID: 3, Parent: 0, Track: 2, Start: 30 * ms, End: 95 * ms},
	}
	self := selfTimes(spans)
	if self[0] != 15*ms || self[1] != 80*ms {
		t.Errorf("self times %v: want the root to keep 15ms and dist.run its whole 80ms", self)
	}
}

func TestCompareVerdicts(t *testing.T) {
	wall := metricByName["pipeline_over_seq"] // lower is better
	rate := metricByName["speedup_vs_seq"]    // higher is better
	v := func(med, min, max float64) value { return value{Value: med, Min: min, Max: max, N: 5} }
	for _, c := range []struct {
		name       string
		m          *metric
		base, cand value
		want       string
	}{
		{"same", wall, v(1, 0.98, 1.02), v(1.01, 0.99, 1.03), verdictOK},
		{"slower, ranges apart", wall, v(1, 0.98, 1.02), v(1.4, 1.35, 1.45), verdictRegressed},
		{"faster", wall, v(1, 0.98, 1.02), v(0.7, 0.68, 0.72), verdictOK},
		{"noise wider than the bound", wall, v(1, 0.8, 1.4), v(1.2, 0.9, 1.5), verdictUnresolved},
		{"higher is better, dropped", rate, v(100, 98, 102), v(60, 58, 62), verdictRegressed},
		{"higher is better, rose", rate, v(100, 98, 102), v(130, 128, 132), verdictOK},
	} {
		if _, got := judge(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	doc := func(wallMedian float64) *document {
		return &document{Workloads: []*result{{Name: "soc_tw_aligned", Metrics: map[string]value{
			"pipeline_over_seq": v(wallMedian, wallMedian*0.99, wallMedian*1.01),
		}}}}
	}
	var out bytes.Buffer
	if status := compareDocuments(&out, doc(1), doc(1.01)); status != 0 {
		t.Errorf("equal runs: status %d\n%s", status, out.String())
	}
	out.Reset()
	if status := compareDocuments(&out, doc(1), doc(1.5)); status != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slower run: status %d\n%s", status, out.String())
	}
}
