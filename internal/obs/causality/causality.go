// Package causality tracks per-event lineage through the Time Warp
// kernel and explains, post-run, where parallel time went: which chain of
// committed events forms the critical path that lower-bounds the
// achievable parallel time of the chosen partition — the quantity the
// paper's pre-simulation phase is implicitly optimizing when it searches
// over (k, b).
//
// The Recorder follows the obs layer's cost discipline: a nil *Recorder
// is valid and disables everything, so every kernel instrumentation site
// costs one branch when recording is off. When on, each cluster goroutine
// writes only its own shard — no locks or atomics on the hot path; the
// kernel's end-of-run WaitGroup provides the happens-before edge under
// which Analyze reads the shards.
package causality

import "fmt"

// seqBits is the number of EventID bits holding the per-source sequence
// number; the cluster id occupies the bits above. 2^44 events per cluster
// is far beyond any run this kernel executes.
const seqBits = 44

// EventID names one positive event globally: the sending cluster packed
// with its per-source sequence number. The zero EventID means "none"
// (recording off, or no ancestor).
type EventID uint64

// Make builds the id of event (src, seq).
func Make(src int32, seq uint64) EventID {
	return EventID(uint64(src+1)<<seqBits | seq&(1<<seqBits-1))
}

// Cluster returns the sending cluster.
func (id EventID) Cluster() int32 { return int32(id>>seqBits) - 1 }

// Seq returns the per-source sequence number.
func (id EventID) Seq() uint64 { return uint64(id) & (1<<seqBits - 1) }

func (id EventID) String() string {
	if id == 0 {
		return "none"
	}
	return fmt.Sprintf("c%d#%d", id.Cluster(), id.Seq())
}

// shard is the single-writer record block of one cluster. Only the owning
// cluster goroutine writes it during the run; Analyze reads after the
// kernel joins all clusters.
type shard struct {
	// cost[cy] is the gate-evaluation count of cycle cy.
	cost []uint32
	// consumed[id] is the cycle at which this cluster consumed remote
	// event id (keyed per destination: one seq fans out to many clusters).
	consumed map[EventID]uint64
}

// Recorder collects per-event lineage for one Time Warp run. Create with
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
		r.shards[c] = shard{
			cost:     make([]uint32, cycles),
			consumed: make(map[EventID]uint64),
		}
	}
}

// CycleCost records the gate evaluations of one executed cycle.
func (r *Recorder) CycleCost(cluster int32, cycle, evals uint64) {
	if r == nil || cycle >= uint64(len(r.shards[cluster].cost)) {
		return
	}
	r.shards[cluster].cost[cycle] = uint32(evals)
}

// Consumed records that cluster dst consumed remote event (src, seq)
// while executing the given cycle.
func (r *Recorder) Consumed(dst, src int32, seq, cycle uint64) {
	if r == nil {
		return
	}
	r.shards[dst].consumed[Make(src, seq)] = cycle
}
