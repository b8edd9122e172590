package timewarp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm/nettrans"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
)

// distWorkloads are the tier-1 differential circuits, shared with
// TestDifferentialWorkloadsVsSequential.
func distWorkloads() []struct {
	name   string
	c      *gen.Circuit
	cycles uint64
} {
	return []struct {
		name   string
		c      *gen.Circuit
		cycles uint64
	}{
		{"viterbi", gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8}), 120},
		{"fir", gen.FIR(gen.FIRConfig{Taps: 8, W: 6, Seed: 3}), 120},
		{"multiplier", gen.Multiplier(6), 100},
		{"soc", gen.ViterbiSoC(gen.SoCConfig{
			Channels:      2,
			Viterbi:       gen.ViterbiConfig{K: 4, W: 4, TB: 8},
			ScramblerBits: 12,
			CRCBits:       8,
		}), 60},
	}
}

// seqOracle is the sequential reference's per-cycle waveforms of nets under
// the seeded random stimulus.
func seqOracle(t *testing.T, nl *netlist.Netlist, nets []netlist.NetID, cycles uint64, seed int64) map[netlist.NetID][]bool {
	t.Helper()
	want, err := sim.Record(nl, sim.RandomVectors{Seed: seed}, cycles, nets)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// compareObserved fails the test at the first (net, cycle) of nets where
// got differs from want.
func compareObserved(t *testing.T, nl *netlist.Netlist, nets []netlist.NetID, got, want map[netlist.NetID][]bool, label string) {
	t.Helper()
	for _, n := range nets {
		g, ok := got[n]
		if !ok {
			t.Fatalf("%s: net %s not observed", label, nl.Nets[n].Name)
		}
		for c, w := range want[n] {
			if g[c] != w {
				t.Fatalf("%s: net %s cycle %d: got %v, sequential %v",
					label, nl.Nets[n].Name, c, g[c], w)
			}
		}
	}
}

// TestDifferentialNetTransportVsSequential pins the kernel over the real
// TCP loopback transport — every inter-cluster message framed, encoded,
// shipped through a socket and decoded — against the sequential oracle on
// every workload family at k ∈ {2, 4}. The waveforms must be bit-identical
// to the in-process runs: the wire is a delivery detail, never a
// semantics change.
func TestDifferentialNetTransportVsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full loopback differential is socket-heavy; covered by the plain test tier and the fuzz NetTrans knob")
	}
	for _, tc := range distWorkloads() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ed, err := tc.c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			nl := ed.Netlist
			state := sim.StateNets(nl)
			want := seqOracle(t, nl, state, tc.cycles, 29)
			for _, k := range []int{2, 4} {
				pr, err := partition.Multiway(ed, partition.Options{
					K: k, B: 10, Seed: 17, Restarts: 2,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				res, err := Run(Config{
					NL:           nl,
					GateParts:    pr.GateParts,
					K:            k,
					Vectors:      sim.RandomVectors{Seed: 29},
					Cycles:       tc.cycles,
					Observe:      state,
					Transport:    nettrans.Loopback(nettrans.LoopbackConfig{Codec: WireCodec()}),
					StallTimeout: 20 * time.Second,
					RunTimeout:   80 * time.Second,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if len(res.InvariantViolations) > 0 {
					t.Fatalf("k=%d: invariant violations: %v", k, res.InvariantViolations)
				}
				compareObserved(t, nl, state, res.Observed, want, tc.name)
			}
		})
	}
}

// distObs carries the observability wiring for an instrumented
// distributed test run: the coordinator's observer (federation sink),
// one observer and probe per worker, and an optional flight-recorder
// directory.
type distObs struct {
	coord         *obs.Observer
	coordProbe    *Probe
	workers       []*obs.Observer
	probes        []*Probe
	postMortemDir string
	coordinator   **Coordinator // when non-nil, receives the coordinator handle
}

// distRun executes one distributed run with the coordinator and every
// worker inside this test process — separate comm networks, separate
// counter spaces, real TCP sockets between them — and returns the merged
// result.
func distRun(t *testing.T, spec *DistSpec, workers int, failAfter time.Duration) (*Result, error, []error) {
	t.Helper()
	return distRunObs(t, spec, workers, failAfter, distObs{})
}

// distRunObs is distRun with full observability wiring.
func distRunObs(t *testing.T, spec *DistSpec, workers int, failAfter time.Duration, do distObs) (*Result, error, []error) {
	t.Helper()
	probe := do.coordProbe
	if probe == nil {
		probe = NewProbe()
	}
	co, err := NewCoordinator(CoordConfig{
		Spec:          spec,
		Workers:       workers,
		RoundEvery:    200 * time.Microsecond,
		Watchdog:      10 * time.Second,
		StallTimeout:  20 * time.Second,
		RunTimeout:    80 * time.Second,
		Probe:         probe,
		Obs:           do.coord,
		PostMortemDir: do.postMortemDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if do.coordinator != nil {
		*do.coordinator = co
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		opts := WorkerOptions{Coordinator: co.Addr()}
		if w < len(do.workers) {
			opts.Obs = do.workers[w]
		}
		if w < len(do.probes) {
			opts.Probe = do.probes[w]
		}
		if w == workers-1 {
			opts.FailAfter = failAfter
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[w] = RunWorker(opts)
		}()
	}
	res, runErr := co.Run()
	wg.Wait()
	if runErr != nil && !probe.State().Failed {
		t.Errorf("coordinator failed (%v) but probe does not report failure", runErr)
	}
	return res, runErr, workerErrs
}

// TestDistributedDifferential is the acceptance check of the multi-process
// path: every workload family, k ∈ {2, 4} clusters spread over two worker
// processes meshed over real sockets, waveforms bit-identical to the
// sequential oracle, no invariant violations, clean worker exits.
func TestDistributedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	for _, tc := range distWorkloads() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ed, err := tc.c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			nl := ed.Netlist
			want := seqOracle(t, nl, nl.POs, tc.cycles, 29) // a DistSpec carries no observe list
			for _, k := range []int{2, 4} {
				pr, err := partition.Multiway(ed, partition.Options{
					K: k, B: 10, Seed: 17, Restarts: 2,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				spec := &DistSpec{
					Source:    tc.c.Source,
					Top:       tc.c.Top,
					GateParts: pr.GateParts,
					K:         k,
					Cycles:    tc.cycles,
					VecSeed:   29,
				}
				res, runErr, workerErrs := distRun(t, spec, 2, 0)
				if runErr != nil {
					t.Fatalf("k=%d: coordinator: %v (workers: %v)", k, runErr, workerErrs)
				}
				for w, werr := range workerErrs {
					if werr != nil {
						t.Fatalf("k=%d: worker %d: %v", k, w, werr)
					}
				}
				if len(res.InvariantViolations) > 0 {
					t.Fatalf("k=%d: invariant violations: %v", k, res.InvariantViolations)
				}
				if res.FinalGVT != tc.cycles {
					t.Errorf("k=%d: final GVT %d, want %d", k, res.FinalGVT, tc.cycles)
				}
				compareObserved(t, nl, nl.POs, res.Observed, want, tc.name)
				t.Logf("%s k=%d workers=2: msgs=%d rollbacks=%d gvt=%d",
					tc.name, k, res.Stats.Messages, res.Stats.Rollbacks, res.FinalGVT)
			}
		})
	}
}

// TestDistributedWorkerCrashAborts kills one worker mid-run (all its
// sockets drop, exactly like a process death) and requires the
// coordinator to abort the whole run with a diagnosis — through the probe
// too — well inside the watchdog, and the surviving worker to exit
// instead of hanging on its dead peer.
func TestDistributedWorkerCrashAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := &DistSpec{
		Source:    c.Source,
		Top:       c.Top,
		GateParts: pr.GateParts,
		K:         4,
		// Far more cycles than 50ms of simulation: the run must still be
		// in flight when the crash hits.
		Cycles:  50_000_000,
		VecSeed: 29,
	}
	type outcome struct {
		res  *Result
		err  error
		werr []error
	}
	done := make(chan outcome, 1)
	go func() {
		res, runErr, workerErrs := distRun(t, spec, 2, 50*time.Millisecond)
		done <- outcome{res, runErr, workerErrs}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatalf("coordinator returned success despite a crashed worker (result: %+v)", o.res)
		}
		if !strings.Contains(o.err.Error(), "worker") {
			t.Errorf("abort diagnosis does not name the worker: %v", o.err)
		}
		for w, werr := range o.werr {
			if werr == nil {
				t.Errorf("worker %d exited clean from an aborted run", w)
			}
		}
		t.Logf("abort: %v", o.err)
	case <-time.After(30 * time.Second):
		t.Fatal("crashed worker hung the run: no abort within 30s (watchdog is 10s)")
	}
}

// sumSeries totals every sample of one metric family across all label
// sets, optionally keeping only samples whose rendered labels contain
// want (e.g. `worker="1"`).
func sumSeries(snap obs.Snapshot, name, want string) float64 {
	var total float64
	for _, sm := range snap.Samples {
		if sm.Name != name {
			continue
		}
		if want != "" && !strings.Contains(sm.Labels, want) {
			continue
		}
		total += sm.Value
	}
	return total
}

// assignedWorkerID recovers a worker's coordinator-assigned id from its
// local registry: the cluster labels of its tw_events series are the
// clusters it ran, and the placement names the one worker that owns them.
func assignedWorkerID(t *testing.T, snap obs.Snapshot, placement []int32) int {
	t.Helper()
	id := -1
	for _, sm := range snap.Samples {
		if sm.Name != "tw_events" {
			continue
		}
		c, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(sm.Labels, `{cluster="`), `"}`))
		if err != nil || c < 0 || c >= len(placement) {
			t.Fatalf("tw_events%s names no cluster of %d", sm.Labels, len(placement))
		}
		if owner := int(placement[c]); id < 0 {
			id = owner
		} else if owner != id {
			t.Fatalf("one registry holds clusters placed on workers %d and %d", id, owner)
		}
	}
	if id < 0 {
		t.Fatal("cannot resolve worker id: the registry has no tw_events series")
	}
	return id
}

// TestDistributedFederation runs an instrumented 2-worker cluster and
// checks the whole observability plane end to end: the coordinator's
// single registry carries every worker's series under a worker label,
// the federated tw_batches tie out exactly against each worker's own
// scrape and against the merged result, the merged dump is valid
// Prometheus exposition, the merged Chrome trace decodes with one process
// per node, and the worker probes report clean completion.
func TestDistributedFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 2000
	spec := &DistSpec{
		Source:    c.Source,
		Top:       c.Top,
		GateParts: pr.GateParts,
		K:         4,
		Cycles:    cycles,
		VecSeed:   29,
	}
	const workers = 2
	do := distObs{
		coord:   obs.New(obs.Options{}),
		workers: []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})},
		probes:  []*Probe{NewProbe(), NewProbe()},
	}
	var co *Coordinator
	do.coordinator = &co
	res, runErr, workerErrs := distRunObs(t, spec, workers, 0, do)
	if runErr != nil {
		t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	if res.FinalGVT != cycles {
		t.Errorf("final GVT %d, want %d", res.FinalGVT, cycles)
	}

	if res.WireFramesSent == 0 {
		t.Error("no cross-process frames counted: k=4 over 2 workers must cut the graph")
	}

	// Federation: the coordinator's single registry must carry every
	// worker's series under a worker label, and the final federated
	// values must equal each worker's own final scrape. Worker ids are
	// assigned by control-plane accept order, so map each local observer
	// to its id through the clusters it ran before comparing.
	fedSnap := do.coord.Snapshot()
	seenID := make(map[int]bool)
	for w, wo := range do.workers {
		localSnap := wo.Snapshot()
		id := assignedWorkerID(t, localSnap, co.placement)
		if seenID[id] {
			t.Fatalf("two workers resolved to id %d", id)
		}
		seenID[id] = true
		wantLbl := `worker="` + strconv.Itoa(id) + `"`
		if sumSeries(fedSnap, "tw_events", wantLbl) == 0 {
			t.Errorf("coordinator registry has no tw_events series for %s", wantLbl)
		}
		fb := sumSeries(fedSnap, "tw_batches", wantLbl)
		lb := sumSeries(localSnap, "tw_batches", "")
		if fb != lb {
			t.Errorf("worker %d (id %d): federated tw_batches = %v, local scrape = %v", w, id, fb, lb)
		}
	}
	// Every comm message a cluster sends is one batch, counted once by the
	// cluster that sent it: summed over the workers, the federated series
	// is the merged result's count exactly.
	if fb := sumSeries(fedSnap, "tw_batches", `worker="`); fb != float64(res.Stats.Batches) || fb == 0 {
		t.Errorf("federated tw_batches summed over workers = %v, merged Stats.Batches = %d", fb, res.Stats.Batches)
	}
	if v, ok := fedSnap.Get("dist_gvt", ""); !ok || v != cycles {
		t.Errorf("dist_gvt = %v (present %v), want %d", v, ok, cycles)
	}
	if sumSeries(fedSnap, "dist_round_latency_us_count", "") == 0 {
		t.Error("dist_round_latency_us histogram recorded no rounds")
	}

	// One scrape covers the cluster, and it must be valid exposition.
	var dump bytes.Buffer
	if err := do.coord.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidatePrometheusText(dump.Bytes()); err != nil {
		t.Fatalf("merged /metrics dump invalid: %v", err)
	}

	// Merged cluster trace: one Chrome-trace process per node, decodable
	// by our own decoder.
	var trace bytes.Buffer
	if err := co.WriteMergedTrace(&trace); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.DecodeChromeTrace(&trace)
	if err != nil {
		t.Fatalf("merged trace does not decode: %v", err)
	}
	wantNames := map[int]string{1: "coordinator", 2: "worker 0", 3: "worker 1"}
	for pid, name := range wantNames {
		if dec.ProcessNames[pid] != name {
			t.Errorf("merged trace pid %d named %q, want %q", pid, dec.ProcessNames[pid], name)
		}
	}
	var coordEvents, workerEvents int
	for _, ev := range dec.Events {
		switch {
		case ev.Pid == 1:
			coordEvents++
		case ev.Pid > 1:
			workerEvents++
		}
	}
	if coordEvents == 0 {
		t.Error("merged trace has no coordinator events (gvt_round spans missing)")
	}
	if workerEvents == 0 {
		t.Error("merged trace has no worker events (trace federation shipped nothing)")
	}

	// Worker probes: driven by GVT broadcasts during the run, finished
	// clean at the end.
	for w, p := range do.probes {
		st := p.State()
		if !st.Attached || !st.Done || st.Failed {
			t.Errorf("worker %d probe: attached=%v done=%v failed=%v (%s)",
				w, st.Attached, st.Done, st.Failed, st.Reason)
		}
		if st.Cycles != cycles {
			t.Errorf("worker %d probe cycles = %d, want %d", w, st.Cycles, cycles)
		}
		if st.GVT == 0 {
			t.Errorf("worker %d probe never saw a GVT broadcast", w)
		}
	}
}

// TestDistributedProfileFederation runs a clean two-worker distributed
// simulation and checks that the merged trace lost none of a worker's
// spans: each worker process in it holds the same (name, track, dur) span
// multiset as one worker's own ring. The phase table or a flame of a
// worker is therefore the same whether it is read at the worker or at the
// coordinator. Worker ids follow accept order, so match as a set.
func TestDistributedProfileFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := &DistSpec{
		Source:    c.Source,
		Top:       c.Top,
		GateParts: pr.GateParts,
		K:         4,
		Cycles:    2000,
		VecSeed:   29,
	}
	var co *Coordinator
	do := distObs{
		coord:       obs.New(obs.Options{}),
		workers:     []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})},
		coordinator: &co,
	}
	if _, runErr, workerErrs := distRunObs(t, spec, 2, 0, do); runErr != nil || workerErrs[0] != nil || workerErrs[1] != nil {
		t.Fatalf("coordinator: %v, workers: %v", runErr, workerErrs)
	}

	// spanSet renders a span multiset canonically: one sorted line per
	// (name, tid, dur) with its multiplicity.
	spanSet := func(count map[string]int) string {
		lines := make([]string, 0, len(count))
		for k, n := range count {
			lines = append(lines, k+" ×"+strconv.Itoa(n))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	key := func(name string, tid int, dur int64) string {
		return name + "|" + strconv.Itoa(tid) + "|" + strconv.FormatInt(dur, 10)
	}
	var own []string
	for _, wo := range do.workers {
		evs, _ := wo.Events()
		count := map[string]int{}
		for _, e := range evs {
			if e.Phase == obs.PhaseSpan {
				count[key(e.Name, obs.ChromeTid(e.Track), e.Dur)]++
			}
		}
		own = append(own, spanSet(count))
	}

	var trace bytes.Buffer
	if err := co.WriteMergedTrace(&trace); err != nil {
		t.Fatal(err)
	}
	dec, err := obs.DecodeChromeTrace(&trace)
	if err != nil {
		t.Fatalf("merged trace does not decode: %v", err)
	}
	merged := map[int]map[string]int{2: {}, 3: {}} // pid 1 is the coordinator
	for _, ev := range dec.Events {
		if ev.Phase == "X" && ev.Pid > 1 {
			merged[ev.Pid][key(ev.Name, ev.Tid, ev.Dur)]++
		}
	}
	got := []string{spanSet(merged[2]), spanSet(merged[3])}
	sort.Strings(got)
	sort.Strings(own)
	if got[0] == "" || got[1] == "" {
		t.Fatalf("a worker process of the merged trace holds no spans")
	}
	for i := range got {
		if got[i] != own[i] {
			t.Errorf("merged worker spans differ from the workers' own rings:\nmerged:\n%s\nown:\n%s", got[i], own[i])
		}
	}
}

// TestDistributedPostMortem crashes a worker mid-run with a
// flight-recorder directory configured and requires the abort to leave a
// complete, well-formed post-mortem bundle behind.
func TestDistributedPostMortem(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := &DistSpec{
		Source:    c.Source,
		Top:       c.Top,
		GateParts: pr.GateParts,
		K:         4,
		Cycles:    50_000_000, // must still be in flight at the crash
		VecSeed:   29,
	}
	dir := t.TempDir()
	var co *Coordinator
	do := distObs{
		coord:         obs.New(obs.Options{}),
		workers:       []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})},
		probes:        []*Probe{NewProbe(), NewProbe()},
		postMortemDir: dir,
		coordinator:   &co,
	}
	_, runErr, _ := distRunObs(t, spec, 2, 100*time.Millisecond, do)
	if runErr == nil {
		t.Fatal("run survived a crashed worker")
	}

	// metrics.prom: valid exposition.
	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatalf("post-mortem bundle missing metrics: %v", err)
	}
	if _, err := obs.ValidatePrometheusText(prom); err != nil {
		t.Errorf("post-mortem metrics.prom invalid: %v", err)
	}

	// trace.json: round-trips through our Chrome-trace decoder.
	tf, err := os.Open(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatalf("post-mortem bundle missing trace: %v", err)
	}
	dec, err := obs.DecodeChromeTrace(tf)
	tf.Close()
	if err != nil {
		t.Fatalf("post-mortem trace.json does not decode: %v", err)
	}
	if dec.ProcessNames[1] != "coordinator" {
		t.Errorf("post-mortem trace pid 1 named %q, want coordinator", dec.ProcessNames[1])
	}

	// probes.json: carries the abort diagnosis and one entry per worker.
	pj, err := os.ReadFile(filepath.Join(dir, "probes.json"))
	if err != nil {
		t.Fatalf("post-mortem bundle missing probes: %v", err)
	}
	var probes struct {
		Reason  string `json:"reason"`
		Workers []struct {
			Worker int `json:"worker"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(pj, &probes); err != nil {
		t.Fatalf("probes.json malformed: %v", err)
	}
	if probes.Reason == "" {
		t.Error("probes.json has no abort reason")
	}
	if len(probes.Workers) != 2 {
		t.Errorf("probes.json lists %d workers, want 2", len(probes.Workers))
	}

	// The round history is the coordinator's gvt_round spans in trace.json:
	// each carries exactly its five args, rounds ascending.
	var rounds int
	var lastRound float64
	for _, ev := range dec.Events {
		if ev.Pid != 1 || ev.Phase != "X" || ev.Name != "gvt_round" {
			continue
		}
		if got := sortedKeys(ev.Args); got != "drained frozen gvt min_progress round" {
			t.Fatalf("gvt_round span %d carries args %v, want round, gvt, min_progress, frozen, drained", rounds, ev.Args)
		}
		if ev.Args["round"] <= lastRound {
			t.Fatalf("gvt_round spans not ascending at span %d: round %v after %v", rounds, ev.Args["round"], lastRound)
		}
		lastRound = ev.Args["round"]
		rounds++
	}
	if rounds == 0 {
		t.Fatal("post-mortem trace.json holds no gvt_round span")
	}

	// goroutines.txt: the coordinator's own dump — a wedged distributed
	// run usually wedges the coordinator's round loop too.
	gd, err := os.ReadFile(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		t.Fatalf("post-mortem bundle missing goroutine dump: %v", err)
	}
	if !bytes.Contains(gd, []byte("goroutine")) {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}

	// Nothing else: one file per artifact, each written by one producer.
	before := bundleSnapshot(t, dir)
	if got := sortedKeys(before); got != "goroutines.txt metrics.prom probes.json trace.json" {
		t.Errorf("bundle holds %s, want goroutines.txt metrics.prom probes.json trace.json", got)
	}

	// Double abort: rewriting the bundle must neither duplicate nor
	// truncate files — the deterministic artifacts come back identical,
	// and no temp litter survives.
	if err := co.WritePostMortem(dir, runErr); err != nil {
		t.Fatalf("second WritePostMortem: %v", err)
	}
	after := bundleSnapshot(t, dir)
	if len(after) != len(before) {
		t.Errorf("double abort changed the bundle file set: %d -> %d files", len(before), len(after))
	}
	for name, content := range before {
		if name == "goroutines.txt" {
			// The dump reflects live goroutine state; only require it stays
			// present and well-formed.
			if !bytes.Contains(after[name], []byte("goroutine")) {
				t.Errorf("goroutines.txt truncated on rewrite")
			}
			continue
		}
		if !bytes.Equal(after[name], content) {
			t.Errorf("double abort changed %s (%d -> %d bytes)", name, len(content), len(after[name]))
		}
	}

	t.Logf("post-mortem: reason=%q rounds=%d trace_events=%d", probes.Reason, rounds, len(dec.Events))
}

// sortedKeys renders a map's keys sorted and space-separated.
func sortedKeys[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// bundleSnapshot reads every file of a post-mortem bundle into memory,
// failing on subdirectories or temp litter.
func bundleSnapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected directory %s in bundle", e.Name())
		}
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp litter %s in bundle", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestDistSpecRoundTrip(t *testing.T) {
	s := &DistSpec{
		Source:    "module m(); endmodule",
		Top:       "m",
		GateParts: []int32{0, 1, 1, 0},
		K:         2,
		Cycles:    77,
		Window:    6,
		VecSeed:   -12345,
	}
	blob := AppendDistSpec(nil, s)
	got, err := DecodeDistSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != s.Source || got.Top != s.Top || got.K != s.K ||
		got.Cycles != 77 || got.Window != 6 || got.VecSeed != -12345 ||
		len(got.GateParts) != 4 || got.GateParts[1] != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	// Every strict prefix must fail (truncation), and a flipped content
	// byte must fail the fingerprint.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeDistSpec(blob[:cut]); err == nil {
			t.Fatalf("truncated spec (%d/%d bytes) accepted", cut, len(blob))
		}
	}
	bad := append([]byte(nil), blob...)
	bad[9] ^= 0x01 // inside Source
	if _, err := DecodeDistSpec(bad); err == nil {
		t.Fatal("corrupted spec accepted (fingerprint did not catch it)")
	}

	// A blob in protocol version 4's format carries one more field, a bool
	// between Window and VecSeed that said whether to batch: it has a valid
	// fingerprint and enough bytes for every field, so only the length
	// tells. Decoded on, its VecSeed would start one byte early.
	tail := len(blob) - 8 // VecSeed
	old := append(append(append([]byte(nil), blob[:tail]...), 1), blob[tail:]...)
	if _, err := DecodeDistSpec(old); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("parent-format spec: error %v, want trailing bytes rejected", err)
	}
}

// FuzzDistProtoDecode hardens every distributed control payload decoder
// against arbitrary bytes: errors are fine, panics and absurd
// allocations are not.
func FuzzDistProtoDecode(f *testing.F) {
	f.Add(AppendDistSpec(nil, &DistSpec{Source: "s", Top: "t", GateParts: []int32{0}, K: 1, Cycles: 1}))
	f.Add(appendReport(nil, distReport{Round: 3,
		Progress: []clusterProgress{{Cluster: 0, Cycle: 9}},
		WireSent: []eraCount{{Era: 2, Count: 5}}}))
	f.Add(appendResult(nil, distResult{Sent: 1, Absorbed: 1,
		Clusters: []clusterResult{{Cluster: 0, Stats: Stats{Messages: 2}}},
		Observed: []observedNet{{Net: 1, Values: []bool{true, false, true}}}}))
	f.Add([]byte{})
	f.Add(AppendSnapshot(nil, obs.Snapshot{
		Families: []obs.Family{{Name: "m", Kind: obs.KindCounter}},
		Samples:  []obs.Sample{{Name: "m", Value: 1}},
	}))
	f.Add(AppendTraceEvents(nil, []obs.Event{{Name: "e", Phase: obs.PhaseInstant}}, 0))
	f.Add(appendAbort(nil, distAbort{Reason: "worker 1 died: EOF"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeDistSpec(data)
		_, _ = decodeReport(data, 8)
		_, _ = decodeResult(data, 8)
		_, _ = decodeU64(data, "cut")
		_, _ = decodeAbort(data)
		// The federation payloads ride the same control plane: their
		// decoders face the same hostile bytes.
		_, _ = DecodeSnapshot(data)
		_, _, _ = DecodeTraceEvents(data)
	})
}
