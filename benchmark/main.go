// Command benchmark is the repository's yardstick: it drives the whole
// pipeline — Verilog source → parse → elaborate → partition → pre-simulate
// → Time Warp run → committed waveforms — from outside, through each
// layer's public functions, on four workloads, checks every output
// against the sequential simulator, and prints every metric by name.
//
//	go run ./benchmark -workload all -seed 1            # end-to-end metrics
//	go run ./benchmark -workload all -seed 1 -trace 1   # per-layer metrics + Chrome traces
//	go run ./benchmark -compare A.json B.json           # verdict per (metric, workload)
//
// README.md in this directory defines the workloads and the metrics;
// BENCHMARK.json at the repository root repeats the names for the driver.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measuring time per workload; repetitions continue until it is used up
	minReps int     // and never stop below this many
	setups  int     // set-up is repeated this often and its median reported
	trace   bool
	scale   scale
	outDir  string // Chrome traces of the traced run land here
}

// result is one workload's outcome.
type result struct {
	Name        string           `json:"name"`
	Repetitions int              `json:"repetitions"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"`
	Metrics     map[string]value `json:"metrics"`
}

// document is what -json writes and -compare reads: the environment the
// numbers were taken in, then one result per workload.
type document struct {
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

type environment struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      scale   `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// commit is stamped by run.sh (-ldflags -X); a bare `go run` leaves it.
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
		seed         = fs.Int64("seed", 1, "drives the stimulus seed and every partitioner seed")
		seconds      = fs.Float64("seconds", 12, "measuring time per workload")
		trace        = fs.Int("trace", 0, "1 = traced run: per-layer metrics, attribution probes, Chrome traces")
		scaleFlag    = fs.String("scale", string(scaleFull), "input sizes: full, or smoke (seconds-long self-test sizes)")
		jsonOut      = fs.String("json", "", "also write the results to this file as JSON")
		outDir       = fs.String("out", ".bench_build", "directory for the traced run's Chrome traces")
		compare      = fs.Bool("compare", false, "compare two -json files given as arguments: baseline, then candidate")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files: baseline.json candidate.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || (*scaleFlag != string(scaleFull) && *scaleFlag != string(scaleSmoke)) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; -trace is 0 or 1, -scale is full or smoke")
		return 2
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}

	// A closed loop from one process: one repetition at a time, on at
	// most four processors so that results from bigger hosts compare.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	o := options{seed: *seed, seconds: *seconds, minReps: 3, setups: 3, trace: *trace == 1, scale: scale(*scaleFlag), outDir: *outDir}
	if o.trace {
		// The traced run reports no set-up time and pairs every traced
		// repetition with an untraced one.
		o.minReps, o.setups = 2, 1
	}
	doc := document{Env: readEnvironment(o)}
	failed := false
	for _, name := range names {
		res, err := runWorkload(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		doc.Workloads = append(doc.Workloads, res)
		failed = failed || res.Failed > 0
		printReport(res, o)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -json: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload sets the workload up, repeats it for the measuring time and
// reduces the samples to one value per metric.
func runWorkload(name string, o options) (*result, error) {
	w, err := newWorkload(name, o.scale)
	if err != nil {
		return nil, err
	}
	ck := &checker{}
	plain := newTracer(false)
	recording := newTracer(true)

	// Set-up: generate the source and run one untimed repetition — what a
	// one-shot user pays before the first useful result.
	setup := samples{}
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		if err := w.prepare(o.seed); err != nil {
			return nil, err
		}
		if err := w.repetition(&rep{index: i, tr: plain, out: samples{}, ck: ck}); err != nil {
			return nil, err
		}
		setup.add("setup_s", time.Since(t0).Seconds())
	}

	untraced, traced := samples{}, samples{}
	reps := 0
	for start := time.Now(); reps < o.minReps || time.Since(start).Seconds() < o.seconds; reps++ {
		runtime.GC() // every repetition starts from the same heap
		if err := w.repetition(&rep{index: reps, tr: plain, out: untraced, ck: ck}); err != nil {
			return nil, err
		}
		if o.trace {
			runtime.GC()
			recording.setRep(reps)
			if err := w.repetition(&rep{index: reps, tr: recording, out: traced, ck: ck}); err != nil {
				return nil, err
			}
		}
	}

	res := &result{Name: name, Repetitions: reps}
	if o.trace {
		addSpanTimes(traced, recording.spans, reps, ck)
		plainWall := untraced.aggregate(ck)["harness.pipeline_wall_s"].Value // and its determinism checks
		res.Metrics = traced.aggregate(ck)
		res.Metrics["harness.trace_overhead_ratio"] = single(res.Metrics["harness.pipeline_wall_s"].Value/plainWall, unitRatio)
		// What the numbers were measured on.
		res.Metrics["host.gomaxprocs"] = single(float64(runtime.GOMAXPROCS(0)), unitCount)
		res.Metrics["host.nproc"] = single(float64(runtime.NumCPU()), unitCount)
		res.Metrics["host.peak_rss_mb"] = single(peakRSSMB(), unitMB)
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := recording.writeChrome(filepath.Join(o.outDir, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = untraced.aggregate(ck)
		res.Metrics["setup_s"] = setup.aggregate(ck)["setup_s"]
	}
	// Each run reports its own kind of metric and nothing else.
	for n := range res.Metrics {
		if metricByName[n].layer != o.trace {
			delete(res.Metrics, n)
		}
	}
	res.Attempted, res.Failed, res.Failures = ck.attempted, ck.failed, ck.failures
	return res, nil
}

// addSpanTimes turns the recorded spans into one "<span name>_s" sample
// per repetition (self-times, summed by name) and checks that the layer
// spans account for the pipeline: its own self-time, the part no layer
// span covers, may not exceed 5 % of its wall.
func addSpanTimes(out samples, spans []span, reps int, ck *checker) {
	self := selfTimes(spans)
	for r := 0; r < reps; r++ {
		for name, secs := range layerSeconds(spans, self, r) {
			if metricByName[name+"_s"] != nil {
				out.add(name+"_s", secs)
			}
		}
	}
	for i, s := range spans {
		if s.Name == "pipeline" {
			wall := s.End - s.Start
			ck.check(float64(self[i]) <= 0.05*float64(wall),
				"trace: repetition %d: %v of the pipeline's %v is in no layer span", s.Rep, self[i], wall)
		}
	}
}

// single is a metric read once per run.
func single(v float64, unit string) value {
	return value{Value: v, Unit: unit, Min: v, Max: v, N: 1}
}

// peakRSSMB reads the process's high-water resident set from the kernel
// (0 where /proc does not say).
func peakRSSMB() float64 {
	buf, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func readEnvironment(o options) environment {
	env := environment{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Commit: commit,
		Seed: o.seed, Scale: o.scale, Seconds: o.seconds, Traced: o.trace,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// printReport prints every metric of the run by name with its unit, then
// the one-line JSON object the benchmark driver reads.
func printReport(res *result, o options) {
	kind := "end-to-end, untraced"
	if o.trace {
		kind = "per-layer, traced"
	}
	fmt.Printf("== %s  seed %d  scale %s  %s  %d repetitions ==\n", res.Name, o.seed, o.scale, kind, res.Repetitions)
	fmt.Printf("%-34s %16s %16s %16s %3s  %-6s %s\n", "metric", "median", "min", "max", "n", "unit", "bound")
	for _, m := range metrics {
		v, ok := res.Metrics[m.name]
		if !ok {
			continue
		}
		bound := ""
		if !m.layer {
			bound = fmt.Sprintf("%.0f%%", m.bound*100)
		}
		fmt.Printf("%-34s %16.6g %16.6g %16.6g %3d  %-6s %s\n", m.name, v.Value, v.Min, v.Max, v.N, v.Unit, bound)
	}
	fmt.Printf("checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	fmt.Println(driverLine(res, o.trace))
}

// driverLine renders the result as the driver's contract wants it: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. The contract has no "not applicable", so a layer the
// workload does not run reads 0 here; the report above and the -json file
// leave such a metric out.
func driverLine(res *result, traced bool) string {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]entry{}}
	for _, m := range metrics {
		if m.layer == traced {
			line.Metrics[m.name] = entry{Value: res.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(buf)
}
