package timewarp

import (
	"fmt"
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
// network, the shared progress / absorbed words, and the clusters this
// process simulates. Run is a host owning all K clusters plus the
// quiescence loop; a distributed worker is a host owning its placement
// share plus the mesh and the coordinator's control loop.
type host struct {
	cfg       Config     // validated, defaults filled
	mode      string     // pprof label: "tw" in-process, "dist" in a worker
	sweep     *sim.Sweep // cfg.NL's compiled cycle: power-on state, topological table
	net       *comm.Network
	progress  []atomic.Uint64 // published cycle per cluster (all K)
	absorbed  atomic.Uint64   // messages fully absorbed by local clusters
	cancelled atomic.Bool     // any failure: every cluster abandons the run
	clusters  []*cluster      // the clusters this process runs

	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error // first local cluster failure
}

// newHost validates cfg and builds the network and the clusters for which
// owns reports true (nil = all of them), instrumented on cfg.Obs. Every
// host of a run computes the copies of all K clusters from the netlist and
// the partition alone, so a sender's dsts and its receivers' remote reads
// agree across processes without a word on the wire.
func newHost(cfg Config, mode string, owns func(c int) bool) (*host, error) {
	ref, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	h := &host{
		cfg:      cfg,
		mode:     mode,
		sweep:    ref,
		net:      comm.NewNetworkTransport(cfg.K, cfg.Transport),
		progress: make([]atomic.Uint64, cfg.K),
	}
	rep := replicate(cfg.NL, cfg.GateParts, cfg.K)
	for c := 0; c < cfg.K; c++ {
		if owns == nil || owns(c) {
			h.clusters = append(h.clusters, newCluster(int32(c), h, rep))
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
// first cluster failure. Clusters exit once their endpoints are closed.
func (h *host) wait() error {
	h.wg.Wait()
	return h.failure()
}

func (h *host) failure() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.err
}

// abort makes every local cluster abandon the run.
func (h *host) abort() {
	h.cancelled.Store(true)
	h.closeEndpoints()
}

// closeEndpoints wakes every blocked cluster; one that has finished its
// trace then exits — the termination signal — and one still waiting for a
// watermark abandons the run.
func (h *host) closeEndpoints() {
	for c := 0; c < h.cfg.K; c++ {
		h.net.Endpoint(c).Close()
	}
}

// sample reads the host's counters into s: the message totals and the
// published cycle of every local cluster (other entries of s.progress are
// left alone).
func (h *host) sample(s *sample) {
	s.sent = h.net.TotalSent()
	s.absorbed = h.absorbed.Load()
	for _, cl := range h.clusters {
		s.progress[cl.id] = h.progress[cl.id].Load()
	}
}

// note feeds the liveness probe from s, a sample this host just took.
func (h *host) note(s *sample, active bool) {
	if h.cfg.Probe == nil {
		return
	}
	minProg := s.progress[h.clusters[0].id]
	for _, cl := range h.clusters[1:] {
		minProg = min(minProg, s.progress[cl.id])
	}
	h.cfg.Probe.note(minProg, active)
}

// collect gathers what the local clusters produced, after they exited.
func (h *host) collect() *distResult {
	res := &distResult{
		Sent:     h.net.TotalSent(),
		Absorbed: h.absorbed.Load(),
		InFlight: h.net.InFlight(),
	}
	for _, cl := range h.clusters {
		res.Clusters = append(res.Clusters, clusterReport{
			Cluster: cl.id, Cycle: h.progress[cl.id].Load(), Stats: cl.stats.Snapshot()})
		for i, n := range cl.prog.obsOwn {
			res.Observed = append(res.Observed, observedNet{Net: n, Values: cl.obsVals[i]})
		}
	}
	return res
}

// mergeResults folds the per-process results of a terminated run into its
// Result and checks the global termination invariants: a clean run
// reports each cluster once, leaves no message in flight, every sent
// message absorbed, every wire frame written also read, and every event a
// cluster enqueued sent in exactly one message, at the end of its cycle.
// FinalGVT is the smallest cycle the clusters reported.
func mergeResults(k int, parts []*distResult) *Result {
	res := &Result{
		Observed:   make(map[netlist.NetID][]bool),
		PerCluster: make([]Stats, k),
	}
	var sent, absorbed uint64
	var inFlight int64
	merged := make([]bool, k)
	cycles := make([]uint64, k)
	for _, r := range parts {
		sent += r.Sent
		absorbed += r.Absorbed
		inFlight += r.InFlight
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
	if inFlight != 0 {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("%d messages still in flight at termination", inFlight))
	}
	if absorbed != sent {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("absorbed %d of %d sent messages at termination", absorbed, sent))
	}
	if res.WireFramesRecv != res.WireFramesSent {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("read %d of %d wire frames written at termination", res.WireFramesRecv, res.WireFramesSent))
	}
	if st := res.Stats; st.BatchedEvents != st.Messages || st.Batches > st.BatchedEvents {
		res.InvariantViolations = append(res.InvariantViolations,
			fmt.Sprintf("%d events sent in %d messages, but %d enqueued",
				st.BatchedEvents, st.Batches, st.Messages))
	}
	res.FinalGVT = slices.Min(cycles)
	return res
}

// instrumentClusters registers the per-cluster kernel metrics on the
// host's observer and hooks each cluster's trace emitter. A worker's
// clusters are a subset of the run's; labels come from each cluster's own
// id. The Stats-backed series are statSeries, the ones a coordinator
// keeps from its workers' reports; queue length is this process's own.
func instrumentClusters(h *host) {
	o := h.cfg.Obs
	if !o.Enabled() {
		return
	}
	reg := o.Registry()
	h.net.Instrument(reg)
	for _, cl := range h.clusters {
		cl.obs = o
		st := &cl.stats
		lbl := obs.L("cluster", int(cl.id))
		// Sampled gauges close over the cluster's atomics: registering
		// them costs the hot path nothing at all.
		for i, f := range st.fields() {
			reg.SampleFunc(statSeries[i].name, statSeries[i].help,
				func() float64 { return float64(f.Load()) }, lbl)
		}
		reg.SampleFunc("tw_queue_len", "pending remote events in the cluster queue",
			func() float64 { return float64(st.queueLen.Load()) }, lbl)
	}
}
