package timewarp

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/comm"
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

// cluster simulates the gates of one partition, a cycle at a time on its
// sim.Machine. Before each cycle, one that another cluster sends frames to
// waits until the link from each of its senders has delivered that
// sender's watermark for the cycle (DESIGN §26).
type cluster struct {
	// The cycle and its state: the machine's slots.
	sim.Machine

	id        int32
	cfg       *Config
	ep        *comm.Endpoint
	progress  []atomic.Uint64
	cancelled *atomic.Bool // set when any cluster fails; everyone exits

	// Static structure: the netlist and partition as this cluster's flat
	// tables (program.go).
	prog *program

	// The next cycle to execute.
	cycle uint64
	// shipped[j] is the words of the values receivers[j] holds of this
	// cluster's flip-flops: those of the last frame to it, or power-on.
	shipped [][]uint64
	// lastCycle is how long the cluster's last cycle took, the longest it
	// spins for a watermark before it sleeps.
	lastCycle time.Duration
	obsVals   [][]bool // obsVals[i][cyc]: committed value of prog.obsOwn[i]

	// Scratch.
	packed []uint64 // the words gathered for one receiver
	// frames and words are the slabs newFrame carves frames from.
	frames []comm.Frame
	words  []uint64

	faultCtr uint64 // changed values shipped, for CorruptEveryN injection
	// absorbed counts the frames this cluster took off its links; the host
	// sums it once the cluster has exited.
	absorbed uint64

	// stats is race-clean: the cluster goroutine writes, the observability
	// sampler (and mid-run snapshots) read concurrently.
	stats atomicStats

	// Observability and causality recording (nil when disabled; every use
	// costs one branch).
	obs *obs.Observer
	rec *causality.Recorder
}

// newCluster builds cluster id of host h's run from its program and
// machine, wired to h's network endpoint and shared progress / cancelled
// words, in the power-on state.
func newCluster(id int32, h *host, p *program, m sim.Machine) *cluster {
	cfg := &h.cfg
	c := &cluster{
		Machine:   m,
		id:        id,
		cfg:       cfg,
		ep:        h.net.Endpoint(int(id)),
		progress:  h.progress,
		cancelled: &h.cancelled,
		rec:       cfg.Causality,
		prog:      p,
		obsVals:   make([][]bool, len(p.obsOwn)),
		shipped:   make([][]uint64, len(p.receivers)),
	}
	words := 0
	for j := range c.shipped {
		c.shipped[j] = make([]uint64, frameWords(len(p.link(j))))
		pack(c.shipped[j], c.Slots, p.link(j))
		words = max(words, len(c.shipped[j]))
	}
	c.packed = make([]uint64, words)
	for i := range c.obsVals {
		c.obsVals[i] = make([]bool, cfg.Cycles)
	}
	return c
}

// run is the cluster main loop: it returns after the last cycle. Each
// frame is stamped with a cycle its receiver executes (endCycle) and is
// taken in that cycle, so nothing is left to wait for (DESIGN §19). The
// last cycle's wait heard every frame sent to the cluster, so a frame
// still on a link after it is a duplicate, or was passed on its link by a
// later one: the apply after the last cycle meets it as a straggler.
func (c *cluster) run() error {
	for c.cycle < c.cfg.Cycles {
		if c.cancelled.Load() || !(c.awaitSenders() && c.holdBack()) {
			return nil // another cluster failed; abandon the run
		}
		t0 := time.Now()
		if err := c.processCycle(c.cycle); err != nil {
			return err
		}
		c.lastCycle = time.Since(t0)
	}
	return c.apply(c.cycle)
}

// awaitSenders holds the cluster before its next cycle until the link from
// every sender has delivered that sender's watermark for the cycle. A
// sender ships what a cycle sent before it marks the next one, and a link
// is FIFO, so after this each link holds every frame the cycle reads. The
// wait spins, polling a polled transport and yielding the processor each
// round, for as long as the cluster's own last cycle took;
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

// publish stores the cluster's progress, its cycle, which the progress
// watchdog and the worker's reports read. The watermark goes out
// first, so a receiver that sees the progress has it too unless a link
// holds it.
func (c *cluster) publish() {
	c.ep.Mark(c.cycle)
	c.progress[c.id].Store(c.cycle)
}

// ship sends receivers[j] a frame for cycle t of the values it reads, when
// any of them changed since the last frame to it. Each changed value
// counts one message, the event the receiver would otherwise be sent.
func (c *cluster) ship(t uint64, j int) {
	last := c.shipped[j]
	now := c.packed[:len(last)]
	pack(now, c.Slots, c.prog.link(j)) // flip-flop i's q is slot i
	changed := 0
	for w := range now {
		changed += bits.OnesCount64(now[w] ^ last[w])
	}
	if changed == 0 {
		return
	}
	f := c.newFrame(t, len(now))
	copy(f.Words, now)
	if ft := c.cfg.Faults; ft != nil && ft.CorruptEveryN > 0 {
		for w := range now {
			for diff := now[w] ^ last[w]; diff != 0; diff &= diff - 1 {
				if c.faultCtr++; c.faultCtr%ft.CorruptEveryN == 0 {
					f.Words[w] ^= diff & -diff // injected silent data corruption
				}
			}
		}
	}
	copy(last, now)
	c.ep.Send(int(c.prog.receivers[j]), f)
	c.stats.messages.Add(uint64(changed))
	c.stats.batches.Add(1)
	c.stats.batchedEvents.Add(uint64(changed))
}

// frameSlab is how many frames newFrame carves from one allocation.
const frameSlab = 64

// newFrame returns a frame of cluster c for cycle t with room for n words,
// carved from c's slabs: a frame costs no allocation of its own, and a
// slab is let go once every frame carved from it is.
func (c *cluster) newFrame(t uint64, n int) *comm.Frame {
	if len(c.frames) == 0 {
		c.frames = make([]comm.Frame, frameSlab)
	}
	if len(c.words) < n {
		c.words = make([]uint64, frameSlab*n)
	}
	f := &c.frames[0]
	*f = comm.Frame{T: t, Src: c.id, Words: c.words[:n:n]}
	c.frames, c.words = c.frames[1:], c.words[n:]
	return f
}

// processCycle executes cycle cyc: it scatters the frames for the cycle
// into their slots, runs the machine's cycle — stimulus, settle, latch —
// and ends the cycle (endCycle).
func (c *cluster) processCycle(cyc uint64) error {
	if err := c.apply(cyc); err != nil {
		return err
	}
	c.Cycle(c.cfg.Vectors, cyc)
	c.endCycle(cyc)
	return nil
}

// apply takes each sender's frame for cycle cyc off the front of its link
// and scatters it into the slots it writes. A sender none of whose values
// changed sent no frame for the cycle, and its slots keep their values. A
// frame of a length other than its link's, or with padding bits set, was
// misrouted, and fails the run. A frame for a cycle before cyc is a
// straggler: the wait for its sender makes one impossible on a FIFO link
// that delivers each frame once, so meeting one fails the run too.
func (c *cluster) apply(cyc uint64) error {
	for j, s := range c.prog.senders {
		f := c.ep.Take(int(s), cyc)
		if f == nil {
			continue
		}
		in := c.prog.inputs(j)
		n := len(in)
		switch {
		case len(f.Words) != frameWords(n):
			return fmt.Errorf("timewarp: cluster %d: frame (T %d) from cluster %d of %d words, its link carries %d values: misrouted",
				c.id, f.T, s, len(f.Words), n)
		case n%64 != 0 && f.Words[len(f.Words)-1]>>(n%64) != 0:
			return fmt.Errorf("timewarp: cluster %d: frame (T %d) from cluster %d sets padding bits beyond its %d values: misrouted",
				c.id, f.T, s, n)
		case f.T < cyc:
			return fmt.Errorf("timewarp: cluster %d: invariant violated: straggler (T %d src %d) at cycle %d, which waited for its senders",
				c.id, f.T, s, cyc)
		}
		unpack(c.Slots, in, f.Words)
		c.rec.Consumed(c.id, s, cyc)
		c.absorbed++
	}
	return nil
}

// endCycle closes cycle cyc once the machine has latched: it records the
// observed nets, ships what the cycle sent unless it is the last one,
// accounts its evaluations — every own gate once — and publishes the next
// cycle.
func (c *cluster) endCycle(cyc uint64) {
	p := c.prog
	// Record observed nets (post-latch state, matching sim.Value after
	// Step).
	for i, s := range p.obsSlot {
		c.obsVals[i][cyc] = c.Slots[s]
	}

	// Each receiver is shipped what it reads for the next cycle, before
	// the cycle is published. Nobody executes the cycle after the last.
	if cyc+1 < c.cfg.Cycles {
		for j := range p.receivers {
			c.ship(cyc+1, j)
		}
	}

	evals := p.cycleCost()
	c.stats.events.Add(evals)
	c.rec.CycleCost(c.id, cyc, evals)
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
