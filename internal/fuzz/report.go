package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/timewarp"
)

// Config drives a fuzz campaign.
type Config struct {
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Runs is the number of differential runs.
	Runs int
	// Chaos enables the adversarial delivery transport (recommended).
	Chaos bool
	// MinLinkWaitFraction is the adversarial-enough bar: the fraction of
	// runs in which a link must have held a watermark past its sender's
	// publish at least once (default 0.3 via DefaultMinLinkWaitFraction in
	// callers; 0 disables the check).
	MinLinkWaitFraction float64
	// StallTimeout bounds each run (default 30s) so a wedged kernel
	// becomes a reported failure, not a hung campaign.
	StallTimeout time.Duration
	// Faults injects kernel regressions — only the harness self-tests
	// set this, to prove the harness catches what it claims to.
	Faults *timewarp.FaultConfig
	// Verbose streams one line per run to Out.
	Verbose bool
	// Out receives progress and is where Report.WriteTo goes in cmd/fuzz
	// (nil = discard).
	Out io.Writer
	// TraceDir, when non-empty, attaches an observer to every run and
	// writes the Chrome trace of each FAILING seed to
	// <TraceDir>/seed-<seed>.trace.json — the post-mortem artifact the CI
	// fuzz job uploads. Passing runs write nothing.
	TraceDir string
	// Obs, when non-nil, receives campaign-level progress counters
	// (fuzz_runs_total, fuzz_failures_total, fuzz_link_wait_runs_total) so
	// a long campaign can be scraped live via the monitoring server. It is
	// separate from the per-run TraceDir observers, which capture a single
	// run's trace.
	Obs *obs.Observer
}

// DefaultMinLinkWaitFraction is the campaign-level adversarial bar: in at
// least this fraction of runs some cycle must have waited for a watermark
// its link still held after the sender had published it (Stats.LinkWaits
// > 0). Otherwise the transport never decided when a receiver could go on
// — the schedule the wait exists for went untested — and the campaign
// fails as "not adversarial enough".
const DefaultMinLinkWaitFraction = 0.3

// Report aggregates a campaign.
type Report struct {
	BaseSeed            int64
	Runs                int
	Chaos               bool
	MinLinkWaitFraction float64

	Failures     []RunResult // failing runs, in seed order
	TracePaths   []string    // failing-seed trace files written (TraceDir set)
	LinkWaitRuns int         // runs in which a link held a watermark past its publish
	ByFamily     map[string]int
	ByPartition  map[string]int

	Stats   timewarp.Stats // summed across runs
	Elapsed time.Duration
}

// Campaign executes cfg.Runs differential runs and aggregates them.
func Campaign(cfg Config) *Report {
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	rep := &Report{
		BaseSeed:            cfg.Seed,
		Runs:                cfg.Runs,
		Chaos:               cfg.Chaos,
		MinLinkWaitFraction: cfg.MinLinkWaitFraction,
		ByFamily:            make(map[string]int),
		ByPartition:         make(map[string]int),
	}
	var runsC, failC, waitC *obs.Counter
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		runsC = reg.Counter("fuzz_runs_total", "differential runs completed")
		failC = reg.Counter("fuzz_failures_total", "differential runs that failed")
		waitC = reg.Counter("fuzz_link_wait_runs_total", "runs in which a link held a watermark past its sender's publish")
	}
	start := time.Now()
	for i := 0; i < cfg.Runs; i++ {
		spec := NewSpec(cfg.Seed+int64(i), cfg.Chaos)
		var o *obs.Observer
		if cfg.TraceDir != "" {
			o = obs.New(obs.Options{})
		}
		res := ExecuteObserved(spec, cfg.Faults, cfg.StallTimeout, o)
		if runsC != nil {
			runsC.Inc()
			if res.Failed() {
				failC.Inc()
			}
			if res.Stats.LinkWaits > 0 {
				waitC.Inc()
			}
		}
		if res.Failed() && o != nil {
			if path, err := writeSeedTrace(cfg.TraceDir, spec.Seed, o); err != nil {
				fmt.Fprintf(out, "  trace for seed %d not written: %v\n", spec.Seed, err)
			} else {
				rep.TracePaths = append(rep.TracePaths, path)
				fmt.Fprintf(out, "  failing-seed trace: %s\n", path)
			}
		}
		rep.absorb(res)
		if cfg.Verbose {
			status := "ok"
			if res.Failed() {
				status = "FAIL"
			}
			fmt.Fprintf(out, "seed %-8d %-10s %-18s k=%d cycles=%-4d linkwaits=%-5d %s\n",
				spec.Seed, spec.Family, res.Partitioner, spec.K, spec.Cycles,
				res.Stats.LinkWaits, status)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// writeSeedTrace dumps the observer's Chrome trace for one failing seed.
func writeSeedTrace(dir string, seed int64, o *obs.Observer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.trace.json", seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := o.WriteChromeTrace(f); err != nil {
		return "", err
	}
	return path, nil
}

func (r *Report) absorb(res RunResult) {
	r.ByFamily[res.Spec.Family]++
	r.ByPartition[res.Partitioner]++
	if res.Stats.LinkWaits > 0 {
		r.LinkWaitRuns++
	}
	r.Stats.Messages += res.Stats.Messages
	r.Stats.Events += res.Stats.Events
	r.Stats.LinkWaits += res.Stats.LinkWaits
	if res.Failed() {
		r.Failures = append(r.Failures, res)
	}
}

// LinkWaitFraction is the fraction of runs in which a link held a
// watermark past its sender's publish at least once.
func (r *Report) LinkWaitFraction() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.LinkWaitRuns) / float64(r.Runs)
}

// AdversarialEnough reports whether the campaign met its link-wait bar.
func (r *Report) AdversarialEnough() bool {
	return r.MinLinkWaitFraction <= 0 || r.LinkWaitFraction() >= r.MinLinkWaitFraction
}

// Err summarises the campaign outcome: nil when every run passed and the
// campaign was adversarial enough.
func (r *Report) Err() error {
	if n := len(r.Failures); n > 0 {
		return fmt.Errorf("fuzz: %d of %d runs failed (first: %s)", n, r.Runs, r.Failures[0].Failure())
	}
	if !r.AdversarialEnough() {
		return fmt.Errorf("fuzz: not adversarial enough: a link held a watermark past its publish in only %.0f%% of runs (bar %.0f%%)",
			100*r.LinkWaitFraction(), 100*r.MinLinkWaitFraction)
	}
	return nil
}

// String renders the campaign report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz campaign: %d runs, base seed %d, chaos=%v (%.1fs)\n",
		r.Runs, r.BaseSeed, r.Chaos, r.Elapsed.Seconds())
	fmt.Fprintf(&b, "  families:     %s\n", countMap(r.ByFamily))
	fmt.Fprintf(&b, "  partitioners: %s\n", countMap(r.ByPartition))
	fmt.Fprintf(&b, "  link-wait runs: %d/%d (%.0f%%, bar %.0f%%)\n",
		r.LinkWaitRuns, r.Runs, 100*r.LinkWaitFraction(), 100*r.MinLinkWaitFraction)
	fmt.Fprintf(&b, "  kernel totals: msgs=%d events=%d linkwaits=%d\n",
		r.Stats.Messages, r.Stats.Events, r.Stats.LinkWaits)
	if len(r.Failures) == 0 {
		adv := "adversarial bar met"
		if !r.AdversarialEnough() {
			adv = "NOT ADVERSARIAL ENOUGH"
		}
		fmt.Fprintf(&b, "  result: all runs passed; %s\n", adv)
	} else {
		fmt.Fprintf(&b, "  result: %d FAILURES\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(&b, "    %s\n", f.Failure())
		}
	}
	return b.String()
}

func countMap(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
