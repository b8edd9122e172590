package timewarp

import (
	"fmt"
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

// window bounds how far a cluster runs ahead of the clusters it sends to:
// at most window cycles beyond their watermarks, so what it sends waits in
// their queues for at most that many cycles. A wait for senders bounds a
// cluster from behind; this bounds it from ahead, which matters to a
// cluster without senders, and to a chain whose far end lags.
const window = 8

// cluster simulates the gates of one partition, a cycle at a time by one
// levelized sweep. Before each cycle, one that another cluster sends events
// to waits until the link from each of its senders has delivered that
// sender's watermark for the cycle (DESIGN §26).
type cluster struct {
	id        int32
	cfg       *Config
	ep        *comm.Endpoint
	progress  []atomic.Uint64
	absorbed  *atomic.Uint64 // global count of messages fully absorbed
	cancelled *atomic.Bool   // set when any cluster fails; everyone exits

	// Static structure: the netlist and partition as this cluster's flat
	// tables (program.go).
	prog *program

	// Dynamic state: the slots of the cluster's program (program.code)
	// and the next cycle to execute.
	slots []bool
	cycle uint64
	// inq is the input queue: every remote event received for a cycle not
	// yet executed, strictly increasing in (T, Src, Seq) (cmpEvent; see
	// checkLogs). A cycle consumes the events for it from the front and
	// drops them (DESIGN §27).
	inq []event
	// lastCycle is how long the cluster's last cycle took, the longest it
	// spins for a watermark before it sleeps.
	lastCycle time.Duration
	seq       uint64
	obsVals   [][]bool // obsVals[i][cyc]: committed value of prog.obsOwn[i]
	vecBuf    []bool   // the stimulus vector of the cycle being executed

	// Outgoing batches: events emitted within a cycle coalesce per
	// destination, preserving per-link FIFO (batch order = send order). A
	// batch leaves as one comm.Message at cycle end (flushOut).
	outBuf []batch

	// Scratch.
	toggling []int32 // one slot per flip-flop: the latch's compaction buffer

	faultCtr uint64 // events sent, for CorruptEveryN injection

	// stats is race-clean: the cluster goroutine writes, the observability
	// sampler (and mid-run snapshots) read concurrently.
	stats atomicStats

	// Observability and causality recording (nil when disabled; every use
	// costs one branch).
	obs *obs.Observer
	rec *causality.Recorder
}

// newCluster builds cluster id of host h's run, replicated by rep, wired to
// h's network endpoint and shared progress / absorbed / cancelled words, in
// the power-on state.
func newCluster(id int32, h *host, rep *replicas) *cluster {
	cfg := &h.cfg
	p := compile(h.sweep, cfg.GateParts, rep, id, cfg.Observe)
	c := &cluster{
		id:        id,
		cfg:       cfg,
		ep:        h.net.Endpoint(int(id)),
		progress:  h.progress,
		absorbed:  &h.absorbed,
		cancelled: &h.cancelled,
		rec:       cfg.Causality,
		prog:      p,
		slots:     make([]bool, len(p.code.Nets)),
		obsVals:   make([][]bool, len(p.obsOwn)),
		vecBuf:    make([]bool, p.vecWidth),
		outBuf:    make([]batch, cfg.K),
		toggling:  make([]int32, len(p.latchD)),
	}
	p.code.Load(c.slots, h.sweep.PowerOn)
	for i := range c.obsVals {
		c.obsVals[i] = make([]bool, cfg.Cycles)
	}
	return c
}

// run is the cluster main loop.
func (c *cluster) run() error {
	for {
		if c.cancelled.Load() {
			return nil // another cluster failed; abandon the run
		}
		if c.cycle < c.cfg.Cycles && !(c.awaitSenders() && c.holdBack()) {
			return nil
		}
		msgs := c.ep.TryRecvAll()
		if err := c.absorb(msgs); err != nil {
			return err
		}
		c.absorbed.Add(uint64(len(msgs)))

		if c.cycle >= c.cfg.Cycles {
			// Own trace finished; the last cycle's senders still ship
			// events for the cycle after it. Absorb them until the watcher
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

		t0 := time.Now()
		if err := c.processCycle(c.cycle); err != nil {
			return err
		}
		c.lastCycle = time.Since(t0)
		// Yield between cycles so clusters interleave even on few OS
		// threads.
		runtime.Gosched()
	}
}

// awaitSenders holds the cluster before its next cycle until the link from
// every sender has delivered that sender's watermark for the cycle. A
// sender ships what a cycle sent before it marks the next one, and a link
// is FIFO, so the mailbox drained after this holds every event the cycle
// reads. The wait spins, polling a polled transport and yielding the
// processor each round, for as long as the cluster's own last cycle took;
// a watermark that has not arrived by then is far away, and the cluster
// waits for it in AwaitHeard, asleep unless only its own polls can
// deliver it. A wait for a sender that has published the cycle but whose
// link still holds its watermark counts one link wait. It reports false
// when the run is abandoned meanwhile.
func (c *cluster) awaitSenders() bool {
	if f := c.cfg.Faults; f != nil && f.SkipSenderWait {
		return true // injected regression: run on whatever has arrived
	}
	var t0, spun time.Time
	held := false
	for _, s := range c.prog.senders {
		for c.ep.Heard(int(s)) < c.cycle {
			if c.cancelled.Load() {
				return false
			}
			// The publish follows the watermark's hand-over, so a watermark
			// still missing after the publish was seen is held by the link.
			if !held && c.progress[s].Load() >= c.cycle && c.ep.Heard(int(s)) < c.cycle {
				held = true
				c.stats.linkWaits.Add(1)
			}
			if spun.IsZero() {
				t0, spun = c.obs.Start(), time.Now()
			}
			if time.Since(spun) < c.lastCycle {
				c.ep.Poll()
				runtime.Gosched()
				continue
			}
			if !c.ep.AwaitHeard(int(s), c.cycle) {
				return false // closed: the run is abandoned
			}
		}
	}
	if !t0.IsZero() {
		c.obs.Span(int32(c.id), "blocked(senders)", t0, obs.Arg{Key: "cycle", Val: float64(c.cycle)})
	}
	return true
}

// holdBack holds the cluster before its next cycle until every cluster it
// sends to has marked a watermark at most window cycles behind it, in
// AwaitHeard. It reports false when the run is abandoned meanwhile.
func (c *cluster) holdBack() bool {
	if c.cycle <= window {
		return true
	}
	var t0 time.Time
	for _, r := range c.prog.receivers {
		if c.ep.Heard(int(r)) < c.cycle-window {
			if t0.IsZero() {
				t0 = c.obs.Start()
			}
			if !c.ep.AwaitHeard(int(r), c.cycle-window) {
				return false
			}
		}
	}
	if !t0.IsZero() {
		c.obs.Span(int32(c.id), "blocked(window)", t0, obs.Arg{Key: "cycle", Val: float64(c.cycle)})
	}
	return true
}

// absorb files a batch of messages received between two cycles in the
// input queue. Each comm.Message is either a single event or a batch of
// events coalesced by the sender (unpacked in order, so per-link FIFO
// survives).
func (c *cluster) absorb(msgs []comm.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	if len(c.prog.senders) == 0 {
		return fmt.Errorf("timewarp: cluster %d: received %d messages but reads no net another cluster drives: misrouted",
			c.id, len(msgs))
	}
	for _, m := range msgs {
		switch v := m.(type) {
		case event:
			if err := c.absorbOne(v); err != nil {
				return err
			}
		case batch:
			for _, e := range v {
				if err := c.absorbOne(e); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("timewarp: cluster %d: unknown message payload %T", c.id, m)
		}
	}
	c.stats.queueLen.Store(int64(len(c.inq)))
	return nil
}

// publish stores the cluster's progress, its cycle: a lower bound on the
// cycle of anything it will still send, which the quiescence tracker reads.
// The watermark goes out first, so a receiver that sees the progress has
// it too unless a link holds it.
func (c *cluster) publish() {
	c.ep.Mark(c.cycle)
	c.progress[c.id].Store(c.cycle)
}

// absorbOne files one received event in the input queue at its (T, Src,
// Seq) place: on the forward path an append, otherwise a bisection and a
// copy of what sorts after it. An event for a cycle the cluster has
// executed is a straggler: the wait for its sender makes one impossible,
// so meeting one fails the run. An event for a net the cluster does not
// read was misrouted, and fails it too.
func (c *cluster) absorbOne(e event) error {
	if e.T < c.cycle {
		return fmt.Errorf("timewarp: cluster %d: invariant violated: straggler (T %d src %d seq %d) at cycle %d, which waited for its senders",
			c.id, e.T, e.Src, e.Seq, c.cycle)
	}
	if _, ok := c.prog.slot(e.Net); !ok {
		return fmt.Errorf("timewarp: cluster %d: event (T %d src %d seq %d) for net %d, which it does not read: misrouted",
			c.id, e.T, e.Src, e.Seq, e.Net)
	}
	if n := len(c.inq); n == 0 || cmpEvent(c.inq[n-1], e) < 0 {
		c.inq = append(c.inq, e)
	} else {
		i, _ := slices.BinarySearchFunc(c.inq, e, cmpEvent)
		c.inq = slices.Insert(c.inq, i, e)
	}
	return nil
}

// checkLogs verifies the order the bisection stands on: the input queue is
// strictly increasing in (T, Src, Seq). Every insertion preserves it — a
// received event is put at its place, so the same (T, Src, Seq) delivered
// twice is what breaks it. Tests run it after every cycle (CheckInvariants).
func (c *cluster) checkLogs() error {
	for i := 1; i < len(c.inq); i++ {
		if a, b := c.inq[i-1], c.inq[i]; cmpEvent(a, b) >= 0 {
			return fmt.Errorf("timewarp: cluster %d: invariant violated: input queue out of order at %d of %d (T %d src %d seq %d after T %d src %d seq %d)",
				c.id, i, len(c.inq), b.T, b.Src, b.Seq, a.T, a.Src, a.Seq)
		}
	}
	return nil
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

// send emits an event for cycle t, own flip-flop output n holding v, to
// dsts, the clusters reading it.
func (c *cluster) send(t uint64, n netlist.NetID, v bool, dsts []int32) {
	if f := c.cfg.Faults; f != nil && f.CorruptEveryN > 0 {
		c.faultCtr++
		if c.faultCtr%f.CorruptEveryN == 0 {
			v = !v // injected silent data corruption
		}
	}
	c.seq++
	e := event{T: t, Net: n, Val: v, Src: c.id, Seq: c.seq}
	for _, dst := range dsts {
		c.outBuf[dst] = append(c.outBuf[dst], e)
	}
	c.stats.messages.Add(uint64(len(dsts)))
}

// processCycle executes cycle cyc by one levelized sweep: it writes the
// stimulus, applies the remote events for the cycle and drops them,
// settles the fused table of own combinational gates and copies once with
// sim.Settle, and ends the cycle (endCycle).
func (c *cluster) processCycle(cyc uint64) error {
	c.writeStimulus(cyc)
	c.consume(cyc)
	sim.Settle(&c.prog.code, c.slots)
	c.endCycle(cyc)
	if CheckInvariants {
		return c.checkLogs()
	}
	return nil
}

// consume applies the events for cycle cyc, the front of the input queue,
// to the slots of their nets in (T, Src, Seq) order and drops them.
func (c *cluster) consume(cyc uint64) {
	n := 0
	for ; n < len(c.inq) && c.inq[n].T == cyc; n++ {
		e := &c.inq[n]
		s, _ := c.prog.slot(e.Net) // absorbOne refused the nets it lacks
		c.slots[s] = e.Val
		c.rec.Consumed(c.id, e.Src, e.Seq, cyc)
	}
	c.inq = append(c.inq[:0], c.inq[n:]...)
}

// writeStimulus asks cfg.Vectors for cycle cyc's vector and writes it into
// the own stimulus inputs' slots.
func (c *cluster) writeStimulus(cyc uint64) {
	p := c.prog
	if len(p.piSlot) == 0 {
		return
	}
	c.cfg.Vectors.Vector(cyc, c.vecBuf)
	for i, s := range p.piSlot {
		c.slots[s] = c.vecBuf[p.piPos[i]]
	}
}

// endCycle closes cycle cyc once its settle is done: it latches, records the
// observed nets, ships what the cycle sent, accounts its evaluations —
// every own gate once — and publishes the next cycle.
func (c *cluster) endCycle(cyc uint64) {
	p, slots := c.prog, c.slots
	// Latch own DFFs; all d inputs are sampled before any q is updated
	// (a DFF chain shifts one stage per cycle), and a q change is sent for
	// the next cycle, which reads it. The toggling ones are collected
	// without a branch: every index is written, and the end advances by
	// whether d differs from q.
	d := p.latchD
	q := slots[:len(d)] // flip-flop i's q holds slot i
	toggling, n := c.toggling[:len(d)], 0
	for i, s := range d {
		toggling[n] = int32(i)
		n += b2i(slots[s] != q[i])
	}
	for _, i := range toggling[:n] {
		q[i] = !q[i]
	}
	if len(p.dsts) > 0 { // another cluster reads some own flip-flop
		for _, i := range toggling[:n] {
			if dsts := p.readers(int(i)); len(dsts) > 0 {
				c.send(cyc+1, p.latchNet[i], q[i], dsts)
			}
		}
	}

	// Record observed nets (post-latch state, matching sim.Value after
	// Step).
	for i, s := range p.obsSlot {
		c.obsVals[i][cyc] = slots[s]
	}

	// What this cycle sent leaves as one coalesced message per
	// destination, before the cycle is published.
	c.flushOut()

	evals := p.cycleCost()
	c.stats.events.Add(evals)
	c.rec.CycleCost(c.id, cyc, evals)
	c.stats.queueLen.Store(int64(len(c.inq)))
	c.cycle = cyc + 1
	c.publish()
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// CheckInvariants makes every cluster verify its input queue's order
// (checkLogs) after each cycle, and fail the run when it is broken. The
// scan is as long as the queue, so only tests turn it on — before the runs
// it is to cover, never during one.
var CheckInvariants bool
