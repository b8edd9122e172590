package timewarp

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// checkPartition validates a cluster count and a gate → cluster map
// against each other. Shared by Config, DistSpec decoding and the
// coordinator, so a bad partition is an error at every door.
func checkPartition(k int, gateParts []int32) error {
	if k < 1 {
		return fmt.Errorf("timewarp: K must be >= 1, got %d", k)
	}
	for gi, p := range gateParts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("timewarp: gate %d assigned to cluster %d (K=%d)", gi, p, k)
		}
	}
	return nil
}

// prepare validates cfg and fills its defaults in place. It returns the
// compiled cycle of cfg.NL, from which a run takes the gate table, the
// power-on net values and the stimulus width, so that they are the
// sequential simulator's by construction.
func (cfg *Config) prepare() (*sim.Sweep, error) {
	if cfg.NL == nil {
		return nil, fmt.Errorf("timewarp: Config.NL is nil")
	}
	if cfg.Vectors == nil {
		return nil, fmt.Errorf("timewarp: Config.Vectors is nil")
	}
	if err := checkPartition(cfg.K, cfg.GateParts); err != nil {
		return nil, err
	}
	if len(cfg.GateParts) != len(cfg.NL.Gates) {
		return nil, fmt.Errorf("timewarp: GateParts covers %d gates, netlist has %d",
			len(cfg.GateParts), len(cfg.NL.Gates))
	}
	for _, n := range cfg.Observe {
		if n < 0 || int(n) >= len(cfg.NL.Nets) {
			return nil, fmt.Errorf("timewarp: Observe names net %d, netlist has %d", n, len(cfg.NL.Nets))
		}
	}
	if cfg.Observe == nil {
		cfg.Observe = cfg.NL.POs
	}
	return sim.NewSweep(cfg.NL)
}

// host is the part of a Time Warp run one process executes: the K-endpoint
// network, the shared progress words, and the clusters this process
// simulates. Run is a host owning all K clusters, watched by the progress
// watchdog when the run asks for one; a distributed worker is a host
// owning its placement share plus the mesh and the coordinator's control
// loop. Each cluster counts the frames it took itself, and collect sums the
// counts once the clusters have exited.
type host struct {
	cfg       Config // validated, defaults filled
	mode      string // pprof label: "tw" in-process, "dist" in a worker
	net       *comm.Network
	progress  []atomic.Uint64 // published cycle per cluster (all K)
	cancelled atomic.Bool     // any failure: every cluster abandons the run
	clusters  []*cluster      // the clusters this process runs

	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error // first local cluster failure
}

// newHost validates cfg and builds the network and the clusters for which
// owns reports true (nil = all of them), instrumented on cfg.Obs. Every
// host of a run compiles all K clusters (compileAll), so both ends of a
// link agree on its order across processes without a word on the wire.
func newHost(cfg Config, mode string, owns func(c int) bool) (*host, error) {
	sw, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	h := &host{
		cfg:      cfg,
		mode:     mode,
		net:      comm.NewNetworkTransport(cfg.K, cfg.Transport),
		progress: make([]atomic.Uint64, cfg.K),
	}
	progs, machs := compileAll(sw, cfg.GateParts, cfg.K, cfg.Observe)
	for c := range cfg.K {
		if owns == nil || owns(c) {
			h.clusters = append(h.clusters, newCluster(int32(c), h, progs[c], machs[c]))
		}
	}
	instrumentClusters(h)
	return h, nil
}

// start launches one goroutine per local cluster. The first cluster error
// aborts the run — every local cluster is woken and stops — and is then
// handed to onFail (nil = nothing more to do).
func (h *host) start(onFail func(error)) {
	for _, cl := range h.clusters {
		cl := cl
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			var err error
			obs.Labeled(h.mode, cl.id, "sim", func() { err = cl.run() })
			if err == nil {
				return
			}
			h.errMu.Lock()
			first := h.err == nil
			if first {
				h.err = err
			}
			h.errMu.Unlock()
			h.abort()
			if first && onFail != nil {
				onFail(err)
			}
		}()
	}
}

// wait blocks until every local cluster goroutine exited and returns the
// first cluster failure. A cluster exits after its last cycle, or when the
// run is abandoned.
func (h *host) wait() error {
	h.wg.Wait()
	return h.failure()
}

func (h *host) failure() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.err
}

// abort makes every local cluster abandon the run: a cluster blocked on a
// watermark wakes when its endpoint closes.
func (h *host) abort() {
	h.cancelled.Store(true)
	for c := 0; c < h.cfg.K; c++ {
		h.net.Endpoint(c).Close()
	}
}

// note feeds the liveness probe the slowest local cluster's published
// cycle, as activity.
func (h *host) note() {
	if h.cfg.Probe == nil {
		return
	}
	minProg := uint64(math.MaxUint64)
	for _, cl := range h.clusters {
		minProg = min(minProg, h.progress[cl.id].Load())
	}
	h.cfg.Probe.note(minProg, true)
}

// collect gathers what the local clusters produced, after they exited.
func (h *host) collect() *distResult {
	res := &distResult{}
	for _, cl := range h.clusters {
		res.Absorbed += cl.absorbed
		res.Clusters = append(res.Clusters, clusterReport{
			Cluster: cl.id, Cycle: h.progress[cl.id].Load(), Stats: cl.stats.Snapshot()})
		for i, n := range cl.prog.obsOwn {
			res.Observed = append(res.Observed, observedNet{Net: n, Values: cl.obsVals[i]})
		}
	}
	return res
}

// mergeResults folds the per-process results of a terminated run into its
// Result and checks the end-of-run invariants. A run ends by count and
// does not rest on them; they detect faults: a clean run reports each
// cluster once, absorbs every frame its clusters sent (tw_batches: ship
// counts one batch per Send), reads every wire frame written, and carries
// every changed value a cluster shipped in exactly one frame.
// FinalGVT is the smallest cycle the clusters reported.
func mergeResults(k int, parts []*distResult) *Result {
	res := &Result{
		Observed:   make(map[netlist.NetID][]bool),
		PerCluster: make([]Stats, k),
	}
	var absorbed uint64
	merged := make([]bool, k)
	cycles := make([]uint64, k)
	for _, r := range parts {
		absorbed += r.Absorbed
		res.WireFramesSent += r.WireSent
		res.WireFramesRecv += r.WireRecv
		for _, c := range r.Clusters {
			if merged[c.Cluster] {
				res.InvariantViolations = append(res.InvariantViolations,
					fmt.Sprintf("cluster %d reported twice", c.Cluster))
				continue
			}
			merged[c.Cluster] = true
			cycles[c.Cluster] = c.Cycle
			res.PerCluster[c.Cluster] = c.Stats
			res.Stats.add(c.Stats)
		}
		for _, o := range r.Observed {
			if _, dup := res.Observed[o.Net]; dup {
				res.InvariantViolations = append(res.InvariantViolations,
					fmt.Sprintf("net %d observed by two workers", o.Net))
			}
			res.Observed[o.Net] = o.Values
		}
	}
	if absorbed != res.Stats.Batches {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("absorbed %d of %d sent frames at termination", absorbed, res.Stats.Batches))
	}
	if res.WireFramesRecv != res.WireFramesSent {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("read %d of %d wire frames written at termination", res.WireFramesRecv, res.WireFramesSent))
	}
	if st := res.Stats; st.BatchedEvents != st.Messages || st.Batches > st.BatchedEvents {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("%d changed values carried in %d frames, but %d shipped",
				st.BatchedEvents, st.Batches, st.Messages))
	}
	res.FinalGVT = slices.Min(cycles)
	return res
}

// instrumentClusters registers the per-cluster kernel metrics on the
// host's observer and hooks each cluster's trace emitter. A worker's
// clusters are a subset of the run's; labels come from each cluster's own
// id. The series are statSeries, the ones a coordinator keeps from its
// workers' reports.
func instrumentClusters(h *host) {
	o := h.cfg.Obs
	if !o.Enabled() {
		return
	}
	reg := o.Registry()
	for _, cl := range h.clusters {
		cl.obs = o
		lbl := obs.L("cluster", int(cl.id))
		// Sampled gauges close over the cluster's atomics: registering
		// them costs the hot path nothing at all.
		for i, f := range cl.stats.fields() {
			reg.SampleFunc(statSeries[i].name, statSeries[i].help,
				func() float64 { return float64(f.Load()) }, lbl)
		}
	}
}
