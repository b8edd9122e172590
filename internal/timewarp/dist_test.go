package timewarp

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
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

// distObs carries the observability wiring for an instrumented
// distributed test run: the coordinator's observer (the cluster series
// and the merged trace),
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
// processes meshed over real sockets, the primary outputs and every
// flip-flop bit-identical to the sequential oracle, no invariant
// violations, clean worker exits.
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
			state := sim.StateNets(nl)
			want := seqOracle(t, nl, state, tc.cycles, 29)
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
					Observe:   state,
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
				compareObserved(t, nl, state, res.Observed, want, tc.name)
				t.Logf("%s k=%d workers=2: msgs=%d final=%d",
					tc.name, k, res.Stats.Messages, res.FinalGVT)
			}
		})
	}
}

// TestDistributedThreeWorkers runs the SoC split k=4 over three workers:
// clusters 0 and 1 on worker 0, 2 on worker 1, 3 on worker 2, and the only
// traffic is 2→0 and 3→1. A cluster's watermark goes only to the workers
// that read it (meshTransport.routeMarks), so worker 1 is sent none of
// cluster 1's, worker 2 none of cluster 0's, and workers 1 and 2 send each
// other none. The primary outputs and every flip-flop must still be the
// sequential oracle's, and every data frame written must be read.
func TestDistributedThreeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	tc := distWorkloads()[3]
	ed, err := tc.c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	state := sim.StateNets(nl)
	pr, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := &DistSpec{
		Source: tc.c.Source, Top: tc.c.Top, GateParts: pr.GateParts,
		K: 4, Cycles: tc.cycles, VecSeed: 29, Observe: state,
	}
	res, runErr, workerErrs := distRun(t, spec, 3, 0)
	if runErr != nil {
		t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	if res.WireFramesSent != res.WireFramesRecv {
		t.Errorf("%d data frames written, %d read", res.WireFramesSent, res.WireFramesRecv)
	}
	compareObserved(t, nl, state, res.Observed, seqOracle(t, nl, state, tc.cycles, 29), tc.name)
	t.Logf("soc k=4 workers=3: msgs=%d wire frames=%d", res.Stats.Messages, res.WireFramesSent)
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

// fakeWorker joins the coordinator at addr over a bare control connection
// and takes it through the handshake — hello, welcome, ready, start — as a
// worker that simulates nothing. It returns the connection.
func fakeWorker(t *testing.T, addr string) *nettrans.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A coordinator that never answers fails the test instead of hanging it.
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	conn := nettrans.NewConn(raw)
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(nettrans.FrameHello, nettrans.AppendHello(nil, nettrans.Hello{DataAddr: "127.0.0.1:1"})); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{nettrans.FrameWelcome, nettrans.FrameStart} {
		typ, _, err := conn.Recv()
		if err != nil || typ != want {
			t.Fatalf("fake worker read frame 0x%02x (%v), want 0x%02x", typ, err, want)
		}
		if want == nettrans.FrameWelcome {
			if err := conn.Send(nettrans.FrameReady, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return conn
}

// TestDistributedSilentWorkerAborts holds the coordinator to the two
// halves of the push protocol with a fake worker on a bare control
// connection. A worker that goes silent after Start is declared dead once
// it has been silent for the Watchdog: the run aborts with an error naming
// it, and the worker is told why. A worker that reports on its heartbeat
// and then sends its result hears nothing from the coordinator between
// Start and Finish.
func TestDistributedSilentWorkerAborts(t *testing.T) {
	const watchdog = 300 * time.Millisecond
	const cycles = 10
	type outcome struct {
		res *Result
		err error
	}
	run := func(t *testing.T) (*nettrans.Conn, chan outcome) {
		co, err := NewCoordinator(CoordConfig{
			Spec:     &DistSpec{Source: "s", Top: "t", K: 2, Cycles: cycles},
			Workers:  1,
			Watchdog: watchdog,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := co.Run()
			done <- outcome{res, err}
		}()
		return fakeWorker(t, co.Addr()), done
	}

	t.Run("silent", func(t *testing.T) {
		conn, done := run(t)
		t0 := time.Now()
		typ, payload, err := conn.Recv()
		took := time.Since(t0)
		if err != nil || typ != nettrans.FrameAbort {
			t.Fatalf("silent worker read frame 0x%02x (%v), want the abort", typ, err)
		}
		if a, err := decodeAbort(payload); err != nil || !strings.Contains(a.Reason, "worker 0") {
			t.Errorf("abort %q (%v) does not name worker 0", a.Reason, err)
		}
		if took < watchdog/2 || took > watchdog+2*time.Second {
			t.Errorf("aborted %v after start, watchdog %v", took, watchdog)
		}
		o := <-done
		if o.err == nil || !strings.Contains(o.err.Error(), "worker 0") || !strings.Contains(o.err.Error(), "silent") {
			t.Fatalf("coordinator error %v, want worker 0 named silent", o.err)
		}
	})

	t.Run("heartbeats", func(t *testing.T) {
		conn, done := run(t)
		var cs []clusterReport
		for c := range int32(2) {
			cs = append(cs, clusterReport{Cluster: c, Cycle: cycles})
		}
		// Reports spaced so that the whole run outlasts the watchdog.
		for range 6 {
			if err := conn.Send(nettrans.FrameReport, appendReport(nil, distReport{Clusters: cs})); err != nil {
				t.Fatal(err)
			}
			time.Sleep(watchdog / 4)
		}
		if err := conn.Send(nettrans.FrameResult, appendResult(nil, distResult{Clusters: cs})); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := conn.Recv(); err != nil || typ != nettrans.FrameFinish {
			t.Fatalf("read frame 0x%02x (%v) after start, want finish", typ, err)
		}
		if typ, _, err := conn.Recv(); err == nil {
			t.Fatalf("read frame 0x%02x after finish, want the connection closed", typ)
		}
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.FinalGVT != cycles || len(o.res.InvariantViolations) > 0 {
			t.Errorf("final GVT %d, violations %v", o.res.FinalGVT, o.res.InvariantViolations)
		}
	})
}

// requireClusterSeries demands that a coordinator's registry hold, for
// every cluster of the run, the ten Stats-backed tw_* series with the
// merged result's per-cluster values exactly — the counters the workers
// reported, overwritten by their results — and nothing under a worker
// label.
func requireClusterSeries(t *testing.T, snap obs.Snapshot, res *Result) {
	t.Helper()
	for c := range res.PerCluster {
		if res.PerCluster[c].Events == 0 {
			t.Errorf("cluster %d executed nothing", c)
		}
		lbl := `{cluster="` + strconv.Itoa(c) + `"}`
		for i, f := range res.PerCluster[c].fields() {
			if got, ok := snap.Get(statSeries[i].name, lbl); !ok || got != float64(*f) {
				t.Errorf("coordinator %s%s = %v (present %v), Result.PerCluster[%d] = %d",
					statSeries[i].name, lbl, got, ok, c, *f)
			}
		}
	}
	for _, sm := range snap.Samples {
		if strings.Contains(sm.Labels, "worker=") {
			t.Errorf("coordinator series %s%s carries a worker label", sm.Name, sm.Labels)
		}
	}
}

// federationSpec is the run the federation tests share: the small decoder
// at k=4 over two workers, long enough for many GVT rounds.
func federationSpec(t *testing.T, cycles uint64) *DistSpec {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	_, pr := multiway(t, c, partition.Options{K: 4, B: 10, Seed: 17, Restarts: 2})
	return &DistSpec{Source: c.Source, Top: c.Top, GateParts: pr.GateParts, K: 4, Cycles: cycles, VecSeed: 29}
}

// TestDistributedFederation runs an instrumented 2-worker cluster and
// checks the whole observability plane end to end: the coordinator's
// registry carries every cluster's tw_* series, equal to the merged
// result and to each worker's own scrape, under the labels an in-process
// run uses; the dump is valid Prometheus exposition, the merged Chrome
// trace decodes with one process per node, and the worker probes report
// clean completion.
func TestDistributedFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	const cycles = 2000
	spec := federationSpec(t, cycles)
	do := distObs{
		coord:   obs.New(obs.Options{}),
		workers: []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})},
		probes:  []*Probe{NewProbe(), NewProbe()},
	}
	var co *Coordinator
	do.coordinator = &co
	res, runErr, workerErrs := distRunObs(t, spec, 2, 0, do)
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
	if res.WireFramesSent == 0 || res.WireFramesRecv != res.WireFramesSent {
		t.Errorf("wire frames sent %d, read %d: k=4 over 2 workers must cut the graph, and a clean run reads every frame written",
			res.WireFramesSent, res.WireFramesRecv)
	}

	coordSnap := do.coord.Snapshot()
	requireClusterSeries(t, coordSnap, res)
	// A worker's own scrape shows its clusters under the same names and
	// labels, with the same final values.
	for w, wo := range do.workers {
		local := 0
		for _, sm := range wo.Snapshot().Samples {
			if !strings.HasPrefix(sm.Name, "tw_") {
				continue
			}
			if v, ok := coordSnap.Get(sm.Name, sm.Labels); ok {
				local++
				if v != sm.Value {
					t.Errorf("worker %d: %s%s = %v locally, %v at the coordinator", w, sm.Name, sm.Labels, sm.Value, v)
				}
			}
		}
		if local != 2*len(statSeries) {
			t.Errorf("worker %d: %d of its local series are at the coordinator, want %d", w, local, 2*len(statSeries))
		}
	}
	if v, ok := coordSnap.Get("dist_min_progress", ""); !ok || v != cycles {
		t.Errorf("dist_min_progress = %v (present %v), want %d", v, ok, cycles)
	}

	// One scrape covers the cluster, and it must be valid exposition.
	var dump bytes.Buffer
	if err := do.coord.WritePrometheus(&dump); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidatePrometheusText(dump.Bytes()); err != nil {
		t.Fatalf("coordinator /metrics dump invalid: %v", err)
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
		t.Error("merged trace has no coordinator events (dist_min_progress samples missing)")
	}
	if workerEvents == 0 {
		t.Error("merged trace has no worker events (trace federation shipped nothing)")
	}

	// Worker probes: noted at every report during the run, finished
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
		if st.MinProgress == 0 {
			t.Errorf("worker %d probe never saw its clusters progress", w)
		}
	}
}

// TestDistributedStatsWithoutWorkerObservers: the kernel counters reach
// the coordinator in the workers' reports, so its series are complete when
// no worker is instrumented. A scraper reads them all through the run,
// while each report overwrites them (run it under -race).
func TestDistributedStatsWithoutWorkerObservers(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	do := distObs{coord: obs.New(obs.Options{})}
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
				do.coord.Snapshot()
			}
		}
	}()
	res, runErr, workerErrs := distRunObs(t, federationSpec(t, 500), 2, 0, do)
	close(stop)
	<-scraped
	if runErr != nil {
		t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
	}
	requireClusterSeries(t, do.coord.Snapshot(), res)
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
	// The killed worker (the last one, FailAfter's) reported its clusters'
	// counters before it died; the bundle keeps the last of them.
	killed := 0
	for _, sm := range do.workers[1].Snapshot().Samples {
		if sm.Name == "tw_events" {
			killed++
			if !bytes.Contains(prom, []byte("\ntw_events"+sm.Labels+" ")) {
				t.Errorf("metrics.prom has no tw_events%s of the killed worker", sm.Labels)
			}
		}
	}
	if killed == 0 {
		t.Error("the killed worker ran no cluster")
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

	// The progress history is the coordinator's dist_min_progress counter
	// in trace.json, one sample per report: each carries exactly its value,
	// and the samples ascend in time and never fall in value.
	var samples int
	var lastTs int64
	var lastProg float64
	for _, ev := range dec.Events {
		if ev.Pid != 1 || ev.Phase != "C" || ev.Name != "dist_min_progress" {
			continue
		}
		if got := sortedKeys(ev.Args); got != "value" {
			t.Fatalf("dist_min_progress sample %d carries args %v, want value", samples, ev.Args)
		}
		if ev.Ts < lastTs || ev.Args["value"] < lastProg {
			t.Fatalf("dist_min_progress sample %d at %d µs reads %v, after %v at %d µs",
				samples, ev.Ts, ev.Args["value"], lastProg, lastTs)
		}
		lastTs, lastProg = ev.Ts, ev.Args["value"]
		samples++
	}
	if samples == 0 {
		t.Fatal("post-mortem trace.json holds no dist_min_progress sample")
	}

	// goroutines.txt: the coordinator's own dump — a wedged distributed
	// run usually wedges the coordinator's loop too.
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

	t.Logf("post-mortem: reason=%q progress samples=%d trace_events=%d", probes.Reason, samples, len(dec.Events))
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
		VecSeed:   -12345,
		Observe:   []netlist.NetID{3, 0, 7},
	}
	blob := AppendDistSpec(nil, s)
	got, err := DecodeDistSpec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// No observe list decodes as none: the run observes the primary outputs.
	if got, err := DecodeDistSpec(AppendDistSpec(nil, &DistSpec{Source: "s", Top: "t", K: 1})); err != nil || got.Observe != nil {
		t.Fatalf("spec without an observe list decoded to %v, %v", got, err)
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
	// The fingerprint covers the observe list too: a net flipped there,
	// or the last gate's cluster moved into it, is caught.
	bad = append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeDistSpec(bad); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("spec with a flipped observed net: error %v, want a fingerprint mismatch", err)
	}
	moved := *s
	moved.GateParts, moved.Observe = s.GateParts[:3], []netlist.NetID{0, 3, 0, 7}
	if moved.Fingerprint() == s.Fingerprint() {
		t.Fatal("a gate moved into the observe list keeps the fingerprint")
	}
	// An observe count past the payload fails before it allocates.
	huge := AppendDistSpec(nil, &DistSpec{Source: "s", Top: "t", K: 1})
	huge = nettrans.AppendU32(huge[:len(huge)-4], 0xFFFFFFF0)
	if _, err := DecodeDistSpec(huge); err == nil || !strings.Contains(err.Error(), "observed nets") {
		t.Fatalf("absurd observe count: error %v, want it rejected by size", err)
	}

	// A blob in another build's layout may decode field by field; only
	// its length tells.
	if _, err := DecodeDistSpec(append(blob, 1)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("spec with a trailing byte: error %v, want trailing bytes rejected", err)
	}
	if _, err := DecodeDistSpec(distSpecV7(s)); err == nil {
		t.Fatal("spec in protocol version 7's layout accepted")
	}
}

// distSpecV7 encodes s in protocol version 7's layout, which carried an
// optimism window (the default, 8) between Cycles and VecSeed.
func distSpecV7(s *DistSpec) []byte {
	blob := AppendDistSpec(nil, s)
	at := len(blob) - 8 - 4 - 4*len(s.Observe) // where VecSeed begins
	return append(nettrans.AppendU64(blob[:at:at], 8), blob[at:]...)
}

// distReportV13 encodes a report in protocol version 13's layout, the
// answer to the coordinator's cut: the round number, the clusters'
// entries, and no trace batch.
func distReportV13(round uint64, cs []clusterReport) []byte {
	return appendClusters(nettrans.AppendU64(nil, round), cs)
}

// distReportV12 encodes a report in protocol version 12's layout, which
// followed version 13's with the worker's message counters, sent and
// absorbed.
func distReportV12(round uint64, cs []clusterReport, sent, absorbed uint64) []byte {
	return nettrans.AppendU64(nettrans.AppendU64(distReportV13(round, cs), sent), absorbed)
}

// distReportV8 encodes a report in protocol version 8's layout, which
// followed version 12's with two lists of per-era wire-frame tallies (one
// entry each).
func distReportV8(round uint64, cs []clusterReport, sent, absorbed uint64) []byte {
	blob := distReportV12(round, cs, sent, absorbed)
	for range 2 {
		blob = nettrans.AppendU32(blob, 1)
		blob = nettrans.AppendU64(nettrans.AppendU64(blob, round-1), 2)
	}
	return blob
}

// distResultV13 encodes r in protocol version 13's layout, which began a
// result with the worker's messages sent, its absorbed count and the
// messages it still held in flight.
func distResultV13(r distResult, sent uint64, inFlight int64) []byte {
	blob := nettrans.AppendI64(nettrans.AppendU64(nettrans.AppendU64(nil, sent), r.Absorbed), inFlight)
	return append(blob, appendResult(nil, r)[8:]...) // the rest, after Absorbed
}

// traceBatchV1 rewrites a one-event trace batch into the trace codec's
// version 1 layout, which carried an 8-byte event ID after the phase byte.
func traceBatchV1(blob []byte) []byte {
	const phaseEnd = 1 + 8 + 4 + 8 + 8 + 4 + 1 // version, dropped, count, Ts, Dur, Track, Phase
	out := append([]byte{1}, blob[1:phaseEnd]...)
	out = nettrans.AppendU64(out, 0)
	return append(out, blob[phaseEnd:]...)
}

// FuzzDistProtoDecode hardens every distributed control payload decoder,
// and the mesh's data frame with the link frame it carries, against
// arbitrary bytes: errors are fine, panics and absurd allocations are not.
func FuzzDistProtoDecode(f *testing.F) {
	f.Add(AppendDistSpec(nil, &DistSpec{Source: "s", Top: "t", GateParts: []int32{0}, K: 1, Cycles: 1}))
	f.Add(AppendDistSpec(nil, &DistSpec{Source: "s", Top: "t", GateParts: []int32{0}, K: 1, Cycles: 1,
		Observe: []netlist.NetID{2, 0}}))
	f.Add(distSpecV7(&DistSpec{Source: "s", Top: "t", GateParts: []int32{0}, K: 1, Cycles: 1,
		Observe: []netlist.NetID{2, 0}}))
	entry := []clusterReport{{Cluster: 0, Cycle: 9, Stats: Stats{Events: 4}}}
	f.Add(appendReport(nil, distReport{Clusters: entry}))
	f.Add(appendReport(nil, distReport{Clusters: entry, Lost: 2,
		Trace: []obs.Event{{Name: "blocked(senders)", Phase: obs.PhaseSpan, Dur: 3,
			Args: [5]obs.Arg{{Key: "cycle", Val: 9}}}}}))
	f.Add(distReportV13(3, entry))
	f.Add(distReportV8(3, entry, 5, 5))
	f.Add(distReportV12(3, entry, 5, 5))
	f.Add(distReportV12(1, []clusterReport{{Cluster: 1}}, 0, 0))
	result := distResult{Absorbed: 1, WireSent: 3, WireRecv: 3,
		Clusters: []clusterReport{{Cluster: 0, Cycle: 1, Stats: Stats{Messages: 2}}},
		Observed: []observedNet{{Net: 1, Values: []bool{true, false, true}}}}
	f.Add(appendResult(nil, result))
	f.Add(distResultV13(result, 1, 0))
	f.Add([]byte{})
	f.Add(appendMark(nil, 1, 7))
	f.Add(AppendTraceEvents(nil, []obs.Event{{Name: "e", Phase: obs.PhaseInstant}}, 0))
	f.Add(traceBatchV1(AppendTraceEvents(nil, []obs.Event{{Name: "e", Phase: obs.PhaseInstant}}, 0)))
	f.Add(appendAbort(nil, distAbort{Reason: "worker 1 died: EOF"}))
	for _, h := range hostileFrames() { // data frames, as a worker's mesh reads them
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeDistSpec(data)
		_, _ = decodeReport(data, 8)
		_, _ = decodeResult(data, 8)
		_, _ = decodeAbort(data)
		_, _, _ = decodeMark(data, 8)
		// The trace batches ride the same control plane: their decoder
		// faces the same hostile bytes.
		_, _, _ = DecodeTraceEvents(data)
		// So do the data frames, on the mesh beside them.
		_, _, _ = decodeFrame(data, 8)
	})
}

// TestControlDecodersRejectTrailingBytes: a control payload of every kind
// decodes, and the same payload with one byte more does not — a payload
// in another build's layout may decode field by field, and only its
// length tells.
func TestControlDecodersRejectTrailingBytes(t *testing.T) {
	entry := []clusterReport{{Cluster: 1, Cycle: 2, Stats: Stats{Events: 3, LinkWaits: 1}}}
	result := distResult{Absorbed: 4, WireSent: 2, WireRecv: 2, Clusters: entry,
		Observed: []observedNet{{Net: 0, Values: []bool{true}}}}
	for _, tc := range []struct {
		name   string
		valid  []byte
		decode func([]byte) error
	}{
		{"abort", appendAbort(nil, distAbort{Reason: "worker 1 died"}), func(p []byte) error {
			_, err := decodeAbort(p)
			return err
		}},
		{"report", appendReport(nil, distReport{Clusters: entry}), func(p []byte) error {
			_, err := decodeReport(p, 2)
			return err
		}},
		{"report with a trace tail", appendReport(nil, distReport{Clusters: entry, Lost: 1,
			Trace: []obs.Event{{Name: "e", Phase: obs.PhaseInstant}}}), func(p []byte) error {
			_, err := decodeReport(p, 2)
			return err
		}},
		{"result", appendResult(nil, result), func(p []byte) error {
			_, err := decodeResult(p, 2)
			return err
		}},
		{"watermark", appendMark(nil, 1, 9), func(p []byte) error {
			_, _, err := decodeMark(p, 2)
			return err
		}},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Errorf("%s: valid payload: %v", tc.name, err)
		}
		if err := tc.decode(append(tc.valid, 0)); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("%s: one trailing byte: error %v, want it rejected", tc.name, err)
		}
	}
	// A report or result of an older worker may decode field by field for
	// a while; its layout must not decode to the end.
	for name, tc := range map[string]struct {
		blob   []byte
		decode func([]byte) error
	}{
		"version 8's report":  {distReportV8(2, entry, 4, 4), func(p []byte) error { _, err := decodeReport(p, 2); return err }},
		"version 12's report": {distReportV12(2, entry, 4, 4), func(p []byte) error { _, err := decodeReport(p, 2); return err }},
		"version 13's report": {distReportV13(2, entry), func(p []byte) error { _, err := decodeReport(p, 2); return err }},
		"version 13's result": {distResultV13(result, 4, 0), func(p []byte) error { _, err := decodeResult(p, 2); return err }},
	} {
		if err := tc.decode(tc.blob); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
}

// TestCoordinatorTrustsNoClusterID: a report or result that names a
// cluster placed on another worker is a protocol violation naming the
// worker, and a cluster merged twice is an invariant violation, not a
// double count. So is a wire frame written and never read, and a frame a
// cluster sent that no cluster absorbed.
func TestCoordinatorTrustsNoClusterID(t *testing.T) {
	type part struct {
		worker     int
		clusters   []int32 // each sent one frame
		absorbed   uint64  // frames the worker's clusters absorbed
		sent, recv uint64  // wire frames
	}
	for _, tc := range []struct {
		name      string
		parts     []part
		abort     string // the noteStats error, "" for none
		violation string // the mergeResults violation, "" for none
	}{
		{"each cluster once, from its worker", []part{{0, []int32{0, 1}, 2, 5, 2}, {1, []int32{2, 3}, 2, 2, 5}}, "", ""},
		{"a cluster of another worker", []part{{0, []int32{0, 2}, 2, 0, 0}},
			"worker 0 sent counters of cluster 2, which is placed on worker 1", ""},
		{"only another worker's clusters", []part{{1, []int32{0}, 1, 0, 0}},
			"worker 1 sent counters of cluster 0, which is placed on worker 0", ""},
		{"a cluster twice", []part{{0, []int32{0, 1, 0}, 2, 0, 0}, {1, []int32{2, 3}, 2, 0, 0}}, "", "cluster 0 reported twice"},
		{"a wire frame never read", []part{{0, []int32{0, 1}, 2, 5, 2}, {1, []int32{2, 3}, 2, 2, 4}}, "",
			"read 6 of 7 wire frames written at termination"},
		{"a frame never absorbed", []part{{0, []int32{0, 1}, 2, 0, 0}, {1, []int32{2, 3}, 1, 0, 0}}, "",
			"absorbed 3 of 4 sent frames at termination"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := &Coordinator{placement: []int32{0, 0, 1, 1}, stats: make([]Stats, 4), registered: make([]bool, 4)}
			var results []*distResult
			var err error
			var sent, recv uint64
			for _, p := range tc.parts {
				sent, recv = sent+p.sent, recv+p.recv
				r := &distResult{Absorbed: p.absorbed, WireSent: p.sent, WireRecv: p.recv}
				for _, c := range p.clusters {
					r.Clusters = append(r.Clusters, clusterReport{Cluster: c,
						Stats: Stats{Events: 10 + uint64(c), Messages: 1, Batches: 1, BatchedEvents: 1}})
				}
				if err = co.noteStats(p.worker, r.Clusters); err != nil {
					break
				}
				results = append(results, r)
			}
			if tc.abort != "" {
				if err == nil || !strings.Contains(err.Error(), tc.abort) {
					t.Fatalf("error %v, want %q", err, tc.abort)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res := mergeResults(4, results)
			if got := strings.Join(res.InvariantViolations, "; "); got != tc.violation {
				t.Errorf("violations %q, want %q", got, tc.violation)
			}
			if res.Stats.Events != 10+11+12+13 {
				t.Errorf("merged Events = %d, want each cluster counted once (46)", res.Stats.Events)
			}
			if res.WireFramesSent != sent || res.WireFramesRecv != recv {
				t.Errorf("wire frames %d written, %d read; want the workers' sums %d and %d",
					res.WireFramesSent, res.WireFramesRecv, sent, recv)
			}
		})
	}
}
