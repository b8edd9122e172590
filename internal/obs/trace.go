package obs

import "sync"

// Track identities. Non-negative tracks are cluster IDs (one trace track
// per Time Warp cluster); negative tracks are the shared subsystem
// lanes.
const (
	// TrackKernel carries watcher-side events: quiescence rounds,
	// termination, stall diagnostics.
	TrackKernel int32 = -1
	// TrackPartition carries partitioner phases (cone growth, pairwise FM
	// rounds, flattening steps).
	TrackPartition int32 = -2
	// TrackCampaign carries pre-simulation campaign events (per-(k,b)
	// point evaluations).
	TrackCampaign int32 = -3
	// TrackComm carries transport events (chaos stalls and releases).
	TrackComm int32 = -4
)

// Event phases (a subset of the Chrome trace-event phases).
const (
	PhaseSpan    byte = 'X' // complete span: Ts + Dur
	PhaseInstant byte = 'i' // instant event
	PhaseCounter byte = 'C' // counter sample
)

// maxArgs bounds per-event argument storage; a fixed array keeps Event
// flat so the ring is one contiguous allocation.
const maxArgs = 5

// Arg is one numeric event argument.
type Arg struct {
	Key string
	Val float64
}

// BoolArg is the Arg of a flag: 1 when set, 0 when not.
func BoolArg(key string, b bool) Arg {
	if b {
		return Arg{Key: key, Val: 1}
	}
	return Arg{Key: key}
}

// Event is one trace record. Timestamps and durations are microseconds
// relative to the observer start (the Chrome trace-event unit).
type Event struct {
	Ts    int64
	Dur   int64
	Track int32
	Phase byte
	Name  string
	Args  [maxArgs]Arg // unused slots have empty keys
}

func packArgs(args []Arg) (out [maxArgs]Arg) {
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	copy(out[:], args[:n])
	return out
}

// DefaultTraceCapacity is the ring size, in events, of an Observer built
// from the zero Options. The distributed coordinator sizes the ring it
// keeps per worker with the same constant, so whatever a worker still
// holds at the end of a run the coordinator holds too.
const DefaultTraceCapacity = 1 << 16

// Tracer is a fixed-capacity ring of events. Pushing overwrites the
// oldest events once full (the drop count is reported by Events), so the
// tracer is safe to leave enabled for arbitrarily long runs. The backing
// slice grows on demand up to the capacity — a short run never pays for
// the full ring, which keeps per-run observer setup out of the overhead
// budget (see the BenchmarkTimeWarpObs pair).
type Tracer struct {
	mu       sync.Mutex
	buf      []Event
	capacity uint64
	next     uint64 // total events ever pushed; write slot = next % capacity
}

// NewTracer creates a ring holding up to capacity events. An Observer
// owns one; the distributed coordinator keeps one per worker for the
// events that worker ships.
func NewTracer(capacity int) *Tracer {
	return &Tracer{capacity: uint64(capacity)}
}

// Push records one event, overwriting the oldest once the ring is full.
func (t *Tracer) Push(e Event) {
	t.mu.Lock()
	if uint64(len(t.buf)) < t.capacity {
		// Still filling: event i lives at index i, so the ring arithmetic
		// below stays valid once the slice reaches capacity.
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next%t.capacity] = e
	}
	t.next++
	t.mu.Unlock()
}

// Events copies the retained events out in push order (oldest retained
// first) and reports how many older events the ring overwrote.
func (t *Tracer) Events() (events []Event, dropped uint64) {
	events, _, dropped = t.drainSince(0)
	return events, dropped
}

// drainSince copies out the retained events with push index >= since, in
// push order, without consuming them. next is the cursor to pass on the
// following call (the total push count so far); dropped counts the
// events in [since, next) that the ring had already overwritten — the
// incremental streaming interface the distributed trace shipper uses.
func (t *Tracer) drainSince(since uint64) (events []Event, next uint64, dropped uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	next = t.next
	first := uint64(0)
	if t.next > t.capacity {
		first = t.next - t.capacity
	}
	if since > next {
		since = next
	}
	if since < first {
		dropped = first - since
		since = first
	}
	events = make([]Event, 0, next-since)
	for i := since; i < next; i++ {
		events = append(events, t.buf[i%t.capacity])
	}
	return events, next, dropped
}
