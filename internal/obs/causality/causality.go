// Package causality tracks the lineage of the frames the Time Warp kernel's
// clusters exchange and explains, post-run, where parallel time went:
// which chain of committed cycles forms the critical path that
// lower-bounds the achievable parallel time of the chosen partition — the
// quantity the paper's pre-simulation phase is implicitly optimizing when
// it searches over (k, b).
//
// The Recorder follows the obs layer's cost discipline: a nil *Recorder
// is valid and disables everything, so every kernel instrumentation site
// costs one branch when recording is off. When on, each cluster goroutine
// writes only its own shard — no locks or atomics on the hot path; the
// kernel's end-of-run WaitGroup provides the happens-before edge under
// which Analyze reads the shards.
package causality

// consumption is one frame a cluster consumed: its sender, and the cycle
// that read it.
type consumption struct {
	src   int32
	cycle uint64
}

// shard is the single-writer record block of one cluster. Only the owning
// cluster goroutine writes it during the run; Analyze reads after the
// kernel joins all clusters.
type shard struct {
	// cost[cy] is the gate-evaluation count of cycle cy.
	cost []uint32
	// consumed lists the frames this cluster consumed, in consumption
	// order.
	consumed []consumption
}

// Recorder collects per-frame lineage for one Time Warp run. Create with
// New, hand it to timewarp.Config.Causality (the kernel calls Attach),
// and call Analyze after Run returns. A nil Recorder disables recording.
type Recorder struct {
	k      int
	cycles uint64
	shards []shard
}

// New creates an empty Recorder; the kernel sizes it via Attach.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether recording is live (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Attach sizes the recorder for a k-cluster, cycles-long run, resetting
// any prior state. The kernel calls it at run start.
func (r *Recorder) Attach(k int, cycles uint64) {
	if r == nil {
		return
	}
	r.k = k
	r.cycles = cycles
	r.shards = make([]shard, k)
	for c := range r.shards {
		r.shards[c] = shard{cost: make([]uint32, cycles)}
	}
}

// CycleCost records the gate evaluations of one executed cycle.
func (r *Recorder) CycleCost(cluster int32, cycle, evals uint64) {
	if r == nil || cycle >= uint64(len(r.shards[cluster].cost)) {
		return
	}
	r.shards[cluster].cost[cycle] = uint32(evals)
}

// Consumed records that cluster dst consumed a frame from cluster src
// while executing the given cycle.
func (r *Recorder) Consumed(dst, src int32, cycle uint64) {
	if r == nil {
		return
	}
	r.shards[dst].consumed = append(r.shards[dst].consumed, consumption{src, cycle})
}

// Frames is how many frames the clusters consumed. Call it, like Analyze,
// only after the run has returned.
func (r *Recorder) Frames() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, s := range r.shards {
		n += len(s.consumed)
	}
	return n
}
