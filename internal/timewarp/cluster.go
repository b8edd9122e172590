package timewarp

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/obs/causality"
	"repro/internal/sim"
)

// window bounds optimism: a cluster may run at most window cycles ahead of
// the slowest cluster, which also bounds rollback depth and the speculative
// work a straggler can waste.
const window = 8

// cluster simulates the gates of one partition, a cycle at a time by one
// levelized sweep; optimistically, keeping a rollback record of every cycle,
// when another cluster can send it an event (DESIGN §26).
type cluster struct {
	id         int32
	cfg        *Config
	deltaRange uint64
	ep         *comm.Endpoint
	progress   []atomic.Uint64
	absorbed   *atomic.Uint64 // global count of messages fully absorbed
	cancelled  *atomic.Bool   // set when any cluster fails; everyone exits
	gvt        *atomic.Uint64 // quiescent GVT (cycles); safe fossil line

	// Static structure: the netlist and partition as this cluster's flat
	// tables (program.go).
	prog *program

	// Dynamic state.
	values []bool
	cycle  uint64 // next cycle to execute
	// inq is the input queue: every remote event received and neither
	// annihilated nor fossil-collected, strictly increasing in (T, Src, Seq)
	// (cmpEvent; see checkLogs). inq[:next] has been consumed, inq[next:] is
	// pending; a rollback moves next back (DESIGN §27).
	inq  []event
	next int
	// staleOut holds events sent before a rollback whose fate is decided
	// lazily: re-execution that regenerates an identical event sends
	// nothing (the receiver already has it); a different value cancels
	// the old event and sends the new one; events not regenerated by the
	// time LVT passes them are cancelled then. Lazy cancellation both
	// cuts message traffic and breaks the livelock where converged
	// clusters endlessly re-send identical results.
	//
	// The live entries are staleOut[staleHead:], non-decreasing in T: a
	// rollback merges the output log's tail in (into staleNext, and the two
	// buffers swap), re-execution looks an event up by bisection, and
	// flushStale advances staleHead past what LVT has overtaken.
	staleOut  []event
	staleHead int
	staleNext []event
	// undo holds one rollback record per executed cycle from the fossil
	// line up: the nets the cycle wrote first with the bit they held and its
	// evaluation count (undo.go). It is nil in a cluster
	// nothing can roll back (see newCluster), and that cluster keeps none of
	// the rollback state: no records, no output log.
	undo *undoLog
	// outputLog is the positive events sent and still standing, for
	// anti-messages; non-decreasing in T like the input queue.
	outputLog []event
	seq       uint64
	obsVals   [][]bool // obsVals[i][cyc]: committed value of prog.obsOwn[i]
	stim      *stimulus
	vecBuf    []bool // scratch for filling a stimulus row

	// Outgoing batches: events emitted within a cycle coalesce per
	// destination, preserving per-link FIFO (batch order = send order). A
	// batch leaves as one comm.Message at cycle end, or at once when its
	// destination is local and has reached the cycle of the event just
	// added (enqueueOut).
	outBuf []batch
	local  []bool // local[c]: cluster c runs in this process (host.local)

	// Scratch.
	boundOld []bool  // prog.bound's values before the cycle's settle
	toggling []int32 // the latch's flipping flip-flops, by index into prog.latch

	faultCtr uint64 // positive events sent, for CorruptEveryN injection

	// stats is race-clean: the cluster goroutine writes, the observability
	// sampler (and mid-run snapshots) read concurrently.
	stats atomicStats

	// Observability (nil when disabled; every use costs one branch).
	obs           *obs.Observer
	rollbackDepth *obs.Histogram // shared across clusters, keyed by run

	// Causality lineage recording (nil when disabled; one branch per
	// site). curParent is the last remote event consumed in the cycle
	// being executed — the lineage parent stamped on outgoing events.
	// blameOrigin is the straggler-origin id blamed for the current
	// rollback re-execution; work, sends and cancellations up to (but not
	// including) cycle blameUntil are attributed to it.
	rec         *causality.Recorder
	curParent   causality.EventID
	blameOrigin causality.EventID
	blameUntil  uint64
}

// newCluster builds cluster id of host h's run, wired to h's network
// endpoint and shared progress / absorbed / cancelled / GVT words, in the
// power-on state.
func newCluster(id int32, h *host) *cluster {
	cfg := &h.cfg
	p := compile(h.sweep, cfg.GateParts, id, cfg.Observe)
	c := &cluster{
		id:         id,
		cfg:        cfg,
		deltaRange: h.deltaRange,
		ep:         h.net.Endpoint(int(id)),
		progress:   h.progress,
		absorbed:   &h.absorbed,
		cancelled:  &h.cancelled,
		gvt:        &h.gvt,
		rec:        cfg.Causality,
		prog:       p,
		values:     append([]bool(nil), h.sweep.PowerOn...),
		obsVals:    make([][]bool, len(p.obsOwn)),
		stim:       h.stim,
		vecBuf:     make([]bool, p.vecWidth),
		boundOld:   make([]bool, len(p.bound)),
		outBuf:     make([]batch, cfg.K),
		local:      h.local,
	}
	// The one state-saving rule: a cluster that can be sent an event can be
	// rolled back and keeps a record of every cycle; one that cannot keeps
	// no rollback state at all.
	if p.remoteIn {
		c.undo = &undoLog{mark: make([]uint64, len(cfg.NL.Nets))}
	}
	for i := range c.obsVals {
		c.obsVals[i] = make([]bool, cfg.Cycles)
	}
	return c
}

// run is the cluster main loop.
func (c *cluster) run() error {
	// blockedT0 coalesces consecutive optimism-window waits into one
	// "blocked(window)" trace span instead of one event per 20µs poll.
	var blockedT0 time.Time

	for {
		if c.cancelled.Load() {
			return nil // another cluster failed; abandon the run
		}
		// Absorb any delivered messages; may trigger a rollback.
		msgs := c.ep.TryRecvAll()
		if err := c.absorb(msgs); err != nil {
			return err
		}
		c.absorbed.Add(uint64(len(msgs)))
		if len(msgs) > 0 {
			c.stats.queueLen.Store(int64(len(c.inq) - c.next))
		}

		if c.cycle >= c.cfg.Cycles {
			// Own trace finished; wait for stragglers until the watcher
			// closes the endpoint.
			msgs := c.ep.RecvWait()
			if msgs == nil {
				return nil // closed: global termination
			}
			err := c.absorb(msgs)
			c.absorbed.Add(uint64(len(msgs)))
			if err != nil {
				return err
			}
			continue
		}

		// Optimism window: stay within window cycles of the slowest
		// cluster.
		if c.minPeerCycle()+window < c.cycle {
			if blockedT0.IsZero() {
				blockedT0 = c.obs.Start()
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		if !blockedT0.IsZero() {
			c.obs.Span(int32(c.id), "blocked(window)", blockedT0,
				obs.Arg{Key: "cycle", Val: float64(c.cycle)})
			blockedT0 = time.Time{}
		}

		if err := c.processCycle(c.cycle); err != nil {
			return err
		}
		// Yield between cycles so clusters interleave even on few OS
		// threads; without this a cluster burns a whole scheduler
		// quantum racing ahead, only to have the work rolled back when
		// its peers finally run.
		runtime.Gosched()

		// Fossil collection below the established GVT — never below a
		// mere minimum of published progress, which messages in flight
		// (anti-messages especially) can undercut. See quiescence.go for
		// why no rollback reaches below the GVT.
		if limit := c.gvt.Load(); c.undo != nil && limit > c.undo.fossil {
			c.obs.Instant(int32(c.id), "fossil_collect",
				obs.Arg{Key: "line", Val: float64(limit)})
			c.undo.trim(limit)
			c.pruneLogs(limit * c.deltaRange)
			if CheckInvariants {
				if err := c.checkLogs(); err != nil {
					return err
				}
			}
		}
	}
}

// minPeerCycle returns the smallest published cycle across clusters.
func (c *cluster) minPeerCycle() uint64 {
	min := uint64(1<<63 - 1)
	for i := range c.progress {
		if v := c.progress[i].Load(); v < min {
			min = v
		}
	}
	return min
}

// absorbState accumulates the earliest straggler across one delivered
// message batch so a single rollback covers all of it.
type absorbState struct {
	lvt      sim.VTime
	rollTo   uint64
	needRoll bool
	trigger  event // the straggler that set rollTo, for blame
}

// absorb handles a batch of messages received between two cycles:
// annihilation, queueing, and one rollback to the earliest straggler, an
// event stamped below the virtual time the cluster has executed up to. Each
// comm.Message is either a single event or a batch of events coalesced by the
// sender (unpacked in order, so per-link FIFO survives).
func (c *cluster) absorb(msgs []comm.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	if c.undo == nil {
		// It keeps no state to roll back to, so applying the event could
		// only be silently wrong.
		return fmt.Errorf("timewarp: cluster %d: received %d messages but reads no net another cluster drives: misrouted",
			c.id, len(msgs))
	}
	st := absorbState{lvt: c.cycle * c.deltaRange, rollTo: math.MaxUint64}
	for _, m := range msgs {
		switch v := m.(type) {
		case event:
			if err := c.absorbOne(v, &st); err != nil {
				return err
			}
		case batch:
			for _, e := range v {
				if err := c.absorbOne(e, &st); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("timewarp: cluster %d: unknown message payload %T", c.id, m)
		}
	}
	return c.resolve(&st)
}

// resolve acts on what absorb found: one rollback covering every straggler
// of the batch.
func (c *cluster) resolve(st *absorbState) error {
	if !st.needRoll {
		return nil
	}
	// Blame the cascade on the trigger's own origin when it carries one
	// (the straggler is itself rollback fallout) and on the trigger itself
	// otherwise (a genuine cascade head).
	var origin causality.EventID
	if c.rec.Enabled() {
		origin = st.trigger.Origin
		if origin == 0 {
			origin = causality.Make(st.trigger.Src, st.trigger.Seq)
		}
	}
	return c.rollback(st.rollTo, origin)
}

// publish stores the cluster's progress, its cycle: a lower bound on the
// timestamp of anything it will still send. That is what the optimism
// window throttles on and what the quiescence tracker takes the GVT
// minimum over.
func (c *cluster) publish() {
	c.progress[c.id].Store(c.cycle)
}

// absorbOne files one received event in the input queue. A positive is
// inserted at its (T, Src, Seq) place: on the forward path that is an
// append, for a straggler a bisection and a copy of what sorts after it. An
// anti-message bisects to the positive it repeats and deletes it: still
// pending, the two annihilate and nothing else happens; already consumed,
// the cluster has to roll back to its time, like for a positive straggler.
func (c *cluster) absorbOne(e event, st *absorbState) error {
	if e.Anti {
		i, ok := slices.BinarySearchFunc(c.inq, e, cmpEvent)
		if !ok {
			return fmt.Errorf("timewarp: cluster %d: anti-message for unknown event (src %d seq %d)",
				c.id, e.Src, e.Seq)
		}
		c.inq = slices.Delete(c.inq, i, i+1)
		if i >= c.next {
			return nil // annihilated in the queue
		}
		c.next--
	} else {
		if n := len(c.inq); n == 0 || cmpEvent(c.inq[n-1], e) < 0 {
			c.inq = append(c.inq, e)
		} else {
			i, _ := slices.BinarySearchFunc(c.inq, e, cmpEvent)
			c.inq = slices.Insert(c.inq, i, e)
			if i < c.next {
				// Among the consumed: a straggler, and the rollback it
				// causes below moves the cursor in front of it.
				c.next++
			}
		}
	}
	if e.T < st.lvt && (!st.needRoll || e.T/c.deltaRange < st.rollTo) {
		st.needRoll = true
		st.rollTo = e.T / c.deltaRange
		st.trigger = e
	}
	return nil
}

// firstAt returns the first index of log, which is non-decreasing in T,
// whose timestamp is at least t (len(log) when there is none).
func firstAt(log []event, t sim.VTime) int {
	i, _ := slices.BinarySearchFunc(log, t, func(e event, t sim.VTime) int { return cmp.Compare(e.T, t) })
	return i
}

// checkLogs verifies the order the bisections stand on: the input queue is
// strictly increasing in (T, Src, Seq) with its cursor inside it, and the
// output log and the live stale events are each non-decreasing in T. Every
// insertion preserves it — a received event is put at its place, so the same
// (T, Src, Seq) delivered twice is what breaks the queue's order; a cycle
// sends its boundary nets at base+1 and its latch at the next cycle's base,
// cycles execute in rising order; a regenerated stale event
// re-enters the output log at the very timestamp it is regenerated at — and
// every removal keeps it: a rollback moves the cursor back, cuts a suffix
// off the output log and merges it into the stale events, fossil collection
// cuts a prefix, annihilation deletes in place. Tests run it after every
// rollback and prune (CheckInvariants).
func (c *cluster) checkLogs() error {
	if c.next < 0 || c.next > len(c.inq) {
		return fmt.Errorf("timewarp: cluster %d: invariant violated: input queue cursor %d outside 0..%d",
			c.id, c.next, len(c.inq))
	}
	for i := 1; i < len(c.inq); i++ {
		if a, b := c.inq[i-1], c.inq[i]; cmpEvent(a, b) >= 0 {
			return fmt.Errorf("timewarp: cluster %d: invariant violated: input queue out of order at %d of %d (T %d src %d seq %d after T %d src %d seq %d)",
				c.id, i, len(c.inq), b.T, b.Src, b.Seq, a.T, a.Src, a.Seq)
		}
	}
	for _, l := range []struct {
		name string
		log  []event
	}{{"output log", c.outputLog}, {"stale events", c.staleOut[c.staleHead:]}} {
		for i := 1; i < len(l.log); i++ {
			if l.log[i].T < l.log[i-1].T {
				return fmt.Errorf("timewarp: cluster %d: invariant violated: %s out of order at %d of %d (T %d after %d)",
					c.id, l.name, i, len(l.log), l.log[i].T, l.log[i-1].T)
			}
		}
	}
	return nil
}

// rollback puts the cluster back at the start of cycle tc and replays from
// there. Every executed cycle at or above the fossil line has a record, so a
// target without one is a broken invariant.
func (c *cluster) rollback(tc uint64, origin causality.EventID) error {
	t0 := c.obs.Start()
	// Write back, newest cycle first, the bit every undone cycle found in
	// each net it noted (undo.go).
	undone, err := c.undo.undo(tc, c.values)
	if err != nil {
		return fmt.Errorf("timewarp: cluster %d: invariant violated: %v (lvt cycle %d)", c.id, err, c.cycle)
	}
	// Every cycle of the cluster evaluates the same gates (endCycle).
	wasted := undone * c.prog.cycleCost()
	c.stats.rolledBackEvents.Add(wasted)
	fromCycle := c.cycle
	depth := c.cycle - tc
	c.stats.rollbacks.Add(1)
	c.stats.noteMax(depth)
	c.rollbackDepth.Observe(float64(depth))
	base := tc * c.deltaRange

	// Events sent after the rollback point become stale: their
	// cancellation is lazy (see staleOut). The boundary is strict
	// because an event timestamped exactly at the cycle-tc boundary was
	// generated by cycle tc-1's latch, which is NOT re-executed — it
	// remains valid.
	cut := firstAt(c.outputLog, base+1)
	moved := len(c.outputLog) - cut
	c.mergeStale(c.outputLog[cut:])
	c.outputLog = c.outputLog[:cut]

	// The remote events consumed from the restored point on are pending
	// again: the cursor moves back over them.
	moved += c.rewind(base)

	c.cycle = tc
	c.publish()
	if c.rec.Enabled() && origin != 0 {
		c.rec.Rollback(c.id, origin, wasted, depth)
		// Re-execution up to the pre-rollback LVT is this straggler's
		// fault: blame sends and cancellations on it until then. A deeper
		// overlapping rollback extends the window, never shrinks it.
		c.blameOrigin = origin
		if fromCycle > c.blameUntil {
			c.blameUntil = fromCycle
		}
		// One flow link per rollback, bound by the origin id: the trace
		// viewer draws the cascade as arrows across the victim tracks.
		c.obs.Flow(int32(c.id), "cascade", uint64(origin), c.rec.FirstFlow(origin),
			obs.Arg{Key: "depth", Val: float64(depth)},
			obs.Arg{Key: "to_cycle", Val: float64(tc)})
	}
	// The span covers the restore work; its args record the causality the
	// Perfetto view surfaces: how far the straggler dragged this cluster
	// back (depth) and between which cycles.
	c.obs.Span(int32(c.id), "rollback", t0,
		obs.Arg{Key: "depth", Val: float64(depth)},
		obs.Arg{Key: "from_cycle", Val: float64(fromCycle)},
		obs.Arg{Key: "to_cycle", Val: float64(tc)},
		obs.Arg{Key: "undone_events", Val: float64(wasted)},
		obs.Arg{Key: "moved_log_entries", Val: float64(moved)})
	if CheckInvariants {
		return c.checkLogs()
	}
	return nil
}

// mergeStale merges tail, the suffix a rollback cuts off the output log,
// into the live stale events, keeping them non-decreasing in T.
func (c *cluster) mergeStale(tail []event) {
	live := c.staleOut[c.staleHead:]
	out := c.staleNext[:0]
	for len(tail) > 0 && len(live) > 0 {
		if live[0].T < tail[0].T {
			out, live = append(out, live[0]), live[1:]
		} else {
			out, tail = append(out, tail[0]), tail[1:]
		}
	}
	out = append(append(out, tail...), live...)
	c.staleOut, c.staleNext, c.staleHead = out, c.staleOut[:0], 0
}

// takeStale removes and returns the live stale event on net n stamped t, if
// there is one: a bisection to t's run and a scan of it. The gap closes
// from the front — what lies before the match is the executing cycle's
// stale events that were not regenerated, a handful.
func (c *cluster) takeStale(t sim.VTime, n netlist.NetID) (event, bool) {
	live := c.staleOut[c.staleHead:]
	for i := firstAt(live, t); i < len(live) && live[i].T == t; i++ {
		if live[i].Net == n {
			s := live[i]
			copy(live[1:i+1], live[:i])
			c.staleHead++
			return s, true
		}
	}
	return event{}, false
}

// rewind moves the input queue's cursor back to the first event stamped t
// or later and returns how many consumed events it passed over. The caller
// is between cycles, so everything stamped below t has been consumed.
func (c *cluster) rewind(t sim.VTime) int {
	cut := firstAt(c.inq, t)
	n := c.next - cut
	c.next = cut
	return n
}

// pruneLogs drops the input queue and output log entries older than vtime
// limit, the fossil line: all of them consumed.
func (c *cluster) pruneLogs(limit sim.VTime) {
	cut := firstAt(c.inq, limit)
	c.inq = append(c.inq[:0], c.inq[cut:]...)
	c.next -= cut
	c.outputLog = append(c.outputLog[:0], c.outputLog[firstAt(c.outputLog, limit):]...)
}

// enqueueOut appends an event (positive or anti) to the destination's
// batch, the one place events join one. A destination in this process that
// has reached the event's cycle gets the batch now (one atomic load): held
// to cycle end, the event would reach it as a straggler, or later than it
// could have. Any other batch waits for flushOut — every batch for another
// process too, whose progress here is a gossiped copy and whose message is a
// TCP write (DESIGN §32).
func (c *cluster) enqueueOut(dst int32, e event) {
	c.outBuf[dst] = append(c.outBuf[dst], e)
	if c.local[dst] && c.progress[dst].Load() >= e.T/c.deltaRange {
		c.ship(dst)
	}
}

// flushOut sends every per-destination batch still held this cycle.
func (c *cluster) flushOut() {
	for dst := range c.outBuf {
		c.ship(int32(dst))
	}
}

// ship sends dst's batch as one comm.Message and empties it. A single-event
// batch ships as the bare event (one allocation either way; the receiver
// handles both), an empty one sends nothing.
func (c *cluster) ship(dst int32) {
	q := c.outBuf[dst]
	switch len(q) {
	case 0:
		return
	case 1:
		c.ep.Send(int(dst), q[0])
	default:
		c.ep.Send(int(dst), append(batch(nil), q...))
	}
	c.stats.batches.Add(1)
	c.stats.batchedEvents.Add(uint64(len(q)))
	c.outBuf[dst] = q[:0]
}

// send emits a positive event to every remote reader of own-driven net n
// — the caller has checked that it has some — honouring lazy cancellation:
// regenerating an identical stale event is a no-op, a different value
// cancels the stale one first.
func (c *cluster) send(t sim.VTime, n netlist.NetID, v bool) {
	dsts := c.prog.readers(n)
	f := c.cfg.Faults
	// Lazy-cancellation suppression; DisableLazySuppression is the
	// injected regression that treats every regenerated event as new, so
	// the stale original is cancelled by flushStale instead of being
	// recognised as already delivered.
	if f == nil || !f.DisableLazySuppression {
		if s, ok := c.takeStale(t, n); ok {
			if s.Val == v {
				// Identical regeneration: the receiver already has it.
				c.outputLog = append(c.outputLog, s)
				return
			}
			c.cancel(s)
		}
	}
	if f != nil && f.CorruptEveryN > 0 {
		c.faultCtr++
		if c.faultCtr%f.CorruptEveryN == 0 {
			v = !v // injected silent data corruption
		}
	}
	c.seq++
	e := event{T: t, Net: n, Val: v, Src: c.id, Seq: c.seq}
	if c.rec.Enabled() {
		e.Parent = c.curParent
		e.Origin = c.blameOrigin
		c.rec.Sent(c.id, e.Seq, e.Origin)
	}
	if c.undo != nil { // nothing else will ever cancel it
		c.outputLog = append(c.outputLog, e)
	}
	for _, dst := range dsts {
		c.enqueueOut(dst, e)
	}
	c.stats.messages.Add(uint64(len(dsts)))
}

// cancel sends the anti-message for a previously sent event.
func (c *cluster) cancel(e event) {
	if f := c.cfg.Faults; f != nil && f.SuppressAntiMessages {
		return // injected regression: cancellation silently dropped
	}
	anti := e
	anti.Anti = true
	dsts := c.prog.readers(e.Net)
	if c.rec.Enabled() {
		// The anti-message carries the blame forward: a receiver rolled
		// back by it attributes its own cascade to the same origin.
		if c.blameOrigin != 0 {
			anti.Origin = c.blameOrigin
		}
		c.rec.Cancelled(c.id, e.Seq, anti.Origin, len(dsts))
	}
	for _, dst := range dsts {
		c.enqueueOut(dst, anti)
	}
	c.stats.antiMessages.Add(uint64(len(dsts)))
	// One instant per cancellation makes an anti-message cascade after a
	// rollback directly visible as a burst on the cluster's trace track.
	c.obs.Instant(int32(c.id), "anti_message", obs.Arg{Key: "t", Val: float64(e.T)})
}

// flushStale cancels stale events with T <= bound that re-execution did
// not regenerate.
func (c *cluster) flushStale(bound sim.VTime) {
	for ; c.staleHead < len(c.staleOut) && c.staleOut[c.staleHead].T <= bound; c.staleHead++ {
		c.cancel(c.staleOut[c.staleHead])
	}
	if c.staleHead == len(c.staleOut) {
		c.staleOut, c.staleHead = c.staleOut[:0], 0
	}
}

// processCycle executes cycle cyc by one levelized sweep: it writes the
// stimulus, applies the remote events stamped inside the cycle, settles the
// own combinational gates once with sim.Settle (the sequential sweep's
// settle), sends each boundary net the settle changed stamped base+1 —
// settled, never a glitch (DESIGN §26) — and ends the cycle (endCycle). A cluster that can be sent an event keeps the cycle's rollback
// record as it goes: every write of a stimulus input, remote input, boundary
// net or flip-flop output notes itself in it; an own combinational output no
// other cluster reads needs no entry (undo.go).
func (c *cluster) processCycle(cyc uint64) error {
	p, values, undo := c.prog, c.values, c.undo
	if c.rec.Enabled() {
		c.curParent = 0
		if c.blameOrigin != 0 && cyc >= c.blameUntil {
			c.blameOrigin = 0 // past the re-execution window: fresh work again
		}
	}
	if undo != nil {
		undo.begin()
		c.stats.checkpoints.Add(1)
	}

	c.writeStimulus(cyc)
	lo, err := c.consume(cyc)
	if err != nil {
		return err
	}
	for i := lo; i < c.next; i++ { // in (T, Src, Seq) order
		if e := &c.inq[i]; values[e.Net] != e.Val {
			values[e.Net] = e.Val
			undo.note(e.Net, values)
		}
	}

	for i, n := range p.bound {
		c.boundOld[i] = values[n]
	}
	sim.Settle(c.cfg.NL, p.tab, values)
	for i, n := range p.bound {
		if values[n] != c.boundOld[i] {
			undo.note(n, values)
			c.send(cyc*c.deltaRange+1, n, values[n])
		}
	}
	c.endCycle(cyc)
	return nil
}

// writeStimulus writes cycle cyc's vector into the own stimulus inputs,
// noting each one it changes in the rollback record.
func (c *cluster) writeStimulus(cyc uint64) {
	p, values := c.prog, c.values
	if len(p.ownPIs) == 0 {
		return
	}
	row := c.stim.row(cyc, c.vecBuf)
	for i, pi := range p.ownPIs {
		pos := uint(p.piPos[i])
		if v := row[pos/64].Load()>>(pos%64)&1 != 0; values[pi] != v {
			values[pi] = v
			c.undo.note(pi, values)
		}
	}
}

// endCycle closes cycle cyc once its settle is done: it latches, records the
// observed nets, cancels and ships what the cycle decided, accounts its
// evaluations — every own gate once — and publishes the next cycle.
func (c *cluster) endCycle(cyc uint64) {
	p, values, undo := c.prog, c.values, c.undo
	// Latch own DFFs; all d inputs are sampled before any q is updated
	// (a DFF chain shifts one stage per cycle), and a q change is sent
	// stamped at the next cycle's base.
	nextBase := (cyc + 1) * c.deltaRange
	toggling := c.toggling[:0]
	for i := range p.latch {
		if f := &p.latch[i]; values[f.d] != values[f.q] {
			toggling = append(toggling, int32(i))
		}
	}
	for _, i := range toggling {
		f := &p.latch[i]
		q := f.q
		values[q] = !values[q]
		undo.note(q, values)
		if f.remote {
			c.send(nextBase, q, values[q])
		}
	}
	c.toggling = toggling[:0]

	// Record observed nets (post-latch state, matching sim.Value after
	// Step).
	for i, n := range p.obsOwn {
		c.obsVals[i][cyc] = values[n]
	}

	// Any stale event up to and including this cycle's latch that was
	// not regenerated is now known wrong: cancel it.
	c.flushStale(nextBase)

	// What this cycle emitted (positives and cancellations) and did not
	// send early leaves as one coalesced message per destination.
	c.flushOut()

	evals := p.cycleCost()
	c.stats.events.Add(evals)
	if undo != nil {
		undo.end()
	}
	c.rec.CycleCost(c.id, cyc, evals)
	c.stats.queueLen.Store(int64(len(c.inq) - c.next))
	c.cycle = cyc + 1
	c.publish()
}

// consume moves the input queue's cursor over the events stamped inside
// cycle cyc and returns where it stood: inq[lo:next] is what the cycle reads.
func (c *cluster) consume(cyc uint64) (lo int, err error) {
	base := cyc * c.deltaRange
	for lo = c.next; c.next < len(c.inq) && c.inq[c.next].T < base+c.deltaRange; c.next++ {
		e := &c.inq[c.next]
		if e.T < base {
			return lo, fmt.Errorf("timewarp: cluster %d: stale event at %d while processing cycle %d",
				c.id, e.T, cyc)
		}
		if c.rec.Enabled() {
			c.rec.Consumed(c.id, e.Src, e.Seq, cyc)
			// Queue order makes the last one the (T, Src, Seq)-greatest
			// consumed event — the lineage parent of everything this
			// cycle sends.
			c.curParent = causality.Make(e.Src, e.Seq)
		}
	}
	return lo, nil
}

// CheckInvariants makes every cluster verify its log order (checkLogs)
// after each rollback and each fossil collection, and fail the run when it
// is broken. The scan is as long as the history, which is the cost the
// bisections exist to avoid, so only tests turn it on — before the runs it
// is to cover, never during one.
var CheckInvariants bool
