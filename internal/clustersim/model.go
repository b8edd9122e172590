// Package clustersim is a deterministic discrete-event model of a cluster
// of machines running clustered Time Warp over a partitioned netlist — the
// testbed substitute for the paper's 4× AMD Athlon / 1G Ethernet / MPICH
// platform (this host has a single CPU, so physical parallel speedup
// cannot be observed; see DESIGN.md).
//
// The model is trace-driven: the sequential simulator produces the true
// event history (which gates evaluate in which cycle, which net changes
// cross partitions), and the model replays that history on k virtual
// machines with a cost model:
//
//   - every gate evaluation costs EvalCost wall units on its machine;
//   - every cross-partition event costs MsgCPU on the sender and the
//     receiver and arrives MsgLatency after the sending cycle completes;
//   - a machine executes its own cycles optimistically, at most Window
//     cycles ahead of the slowest machine (the kernel's throttle);
//   - an event arriving for a cycle the receiver has already passed is a
//     straggler: the machine pays RollbackCost plus re-execution of the
//     undone cycles (counted in ReexecEvents), mirroring the kernel's
//     checkpoint-restore-replay with lazy cancellation (re-executed sends
//     are suppressed, so cascades are charged to the machines but do not
//     multiply messages).
//
// The model is sequential and fully deterministic: identical inputs give
// identical times, message counts and rollback counts on any host.
package clustersim

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Costs is the wall-time cost model, in abstract units of one gate
// evaluation.
type Costs struct {
	// EvalCost per gate evaluation (the unit; default 1).
	EvalCost float64
	// MsgCPU per cross-partition event on each side (pack/unpack,
	// kernel entry — the per-event software overhead of MPICH-style
	// messaging). Default 15.
	MsgCPU float64
	// MsgLatency from end of sending cycle to arrival (wire + stack).
	// Default 100.
	MsgLatency float64
	// RollbackCost per rollback occurrence (state restore). Default 100.
	RollbackCost float64
}

// DefaultCosts is calibrated to the paper's platform regime: their
// sequential run implies ~80ns per gate event, while an MPICH message over
// 1G Ethernet costs on the order of a microsecond of CPU plus several
// microseconds of latency — messages are roughly two orders of magnitude
// more expensive than events. These constants land the modeled speedups of
// the paper's workload grid in the paper's observed 0.4–2.0 band (see
// EXPERIMENTS.md for the calibration evidence).
var DefaultCosts = Costs{EvalCost: 1, MsgCPU: 15, MsgLatency: 100, RollbackCost: 100}

func (c *Costs) fill() {
	if c.EvalCost == 0 {
		c.EvalCost = DefaultCosts.EvalCost
	}
	if c.MsgCPU == 0 {
		c.MsgCPU = DefaultCosts.MsgCPU
	}
	if c.MsgLatency == 0 {
		c.MsgLatency = DefaultCosts.MsgLatency
	}
	if c.RollbackCost == 0 {
		c.RollbackCost = DefaultCosts.RollbackCost
	}
}

// PackedMode selects the trace-generation engine.
type PackedMode int

const (
	// PackedOn (the zero value) folds a WaveBank's traces, replayed on the
	// 64-wide bit-parallel engine (packedgen.go): the cluster model's
	// engine.
	PackedOn PackedMode = iota
	// PackedOff runs the scalar per-event generator, the reference the
	// packed engine is differentially tested against.
	PackedOff
)

// Config describes one modeled run.
type Config struct {
	NL        *netlist.Netlist
	GateParts []int32
	K         int
	Vectors   sim.VectorSource
	Cycles    uint64
	Costs     Costs
	// Window is the optimism bound in cycles (default 4).
	Window uint64
	// Synchronous selects the conservative baseline: machines barrier at
	// every cycle instead of executing optimistically. No rollbacks occur;
	// each cycle costs the slowest machine plus a barrier round trip.
	// This is the classic alternative to Time Warp and the ablation that
	// shows what optimism buys.
	Synchronous bool
	// Packed selects the trace generator. The zero value, PackedOn, is
	// the word-parallel one (packedgen.go): 64 cycles per wave, each wave's
	// replay kept as per-gate evaluation counts and per-net change masks,
	// folded into per-machine counters word-parallel instead of per-event
	// callbacks. PackedOff selects the scalar reference; results are
	// bit-identical.
	Packed PackedMode
	// Waves optionally shares a wave bank across runs (it must have been
	// built from this NL and Vectors, covering at least Cycles). A
	// pre-simulation campaign builds one bank (sim.NewWaveBank) and passes
	// it to every (k, b) point, so each wave is scouted and replayed once
	// per design and every point only folds its trace. A private bank
	// (sim.NewPrivateWaveBank) serves one run. Nil → the run keeps a
	// private bank that logs only its cut nets. Ignored on the scalar path.
	Waves *sim.WaveBank
}

// Result reports the modeled run.
type Result struct {
	// SeqTime is the modeled sequential execution time (all events on one
	// machine, no overheads) — the paper's 1-machine baseline.
	SeqTime float64
	// ParTime is the modeled parallel completion time (max machine wall).
	ParTime float64
	// Speedup = SeqTime / ParTime.
	Speedup float64
	// Events is the number of true gate evaluations (trace length).
	Events uint64
	// Messages is the number of cross-partition events sent.
	Messages uint64
	// Rollbacks is the number of straggler-induced rollbacks.
	Rollbacks uint64
	// ReexecEvents is the re-executed evaluation count (wasted work).
	ReexecEvents uint64
	// CritPath is the committed-event critical path: the longest causal
	// chain of per-machine cycle costs linked by cross-partition
	// messages, ignoring all communication and rollback overheads. It is
	// a lower bound on the completion time of ANY parallel schedule of
	// this trace on these machines — the cost-model analogue of the
	// kernel's causality analyzer — so Speedup can never beat
	// BoundSpeedup no matter how the overheads shrink.
	CritPath float64
	// BoundSpeedup = SeqTime / CritPath, the speedup ceiling the
	// partitioning itself imposes.
	BoundSpeedup float64
	// MachineBusy is the busy wall time per machine.
	MachineBusy []float64
	// MachineEvents is the true event count per machine (load).
	MachineEvents []uint64
}

// cycleTrace is the per-machine workload of one cycle.
type cycleTrace struct {
	evals uint64
	// outBundles[dst] = number of events sent to machine dst during the
	// cycle: K entries, 0 where nothing is sent.
	outBundles []uint64
	// recvHops is the number of distinct mid-cycle deltas at which this
	// machine receives cross-partition events: the depth of the
	// combinational hop chain crossing into this machine. Each hop is a
	// serialized network round trip the machine cannot hide (whether it
	// waits or speculates and re-executes), so the model charges
	// recvHops × MsgLatency per cycle. Cycle-boundary (registered)
	// crossings have a full cycle of slack and cost no hops — the
	// structural reason registered module boundaries simulate so much
	// faster than cuts through combinational guts.
	recvHops uint32
}

// traceSource streams the true event history cycle by cycle; traceGen is
// the scalar per-event implementation, packedGen (packedgen.go) the
// 64-wide bit-parallel one. Both produce bit-identical traces.
type traceSource interface {
	cycle(c uint64) ([]cycleTrace, error)
	discardBelow(c uint64)
	critPath() float64
}

// traceGen streams the true event history cycle by cycle.
type traceGen struct {
	s      *sim.Simulator
	cfg    *Config
	vec    []bool
	window map[uint64][]cycleTrace // cycle → per-machine trace
	// scratch for the per-cycle hook accumulation
	cur     []cycleTrace
	hopSeen []map[uint64]bool // per machine: mid-cycle deltas with arrivals

	// Critical-path DP, folded incrementally as cycles generate.
	// cpFinish[m] is the earliest time machine m's latest generated
	// cycle can causally finish; inCur/inNext are bitmasks of source
	// machines whose messages are consumed by m in the cycle being
	// generated / the one after (combinational crossings land in the
	// sending cycle, registered crossings in the next).
	cpFinish []float64
	cpOld    []float64
	inCur    []uint64
	inNext   []uint64
}

func newTraceGen(cfg *Config) (*traceGen, error) {
	s, err := sim.New(cfg.NL)
	if err != nil {
		return nil, err
	}
	g := &traceGen{
		s:      s,
		cfg:    cfg,
		vec:    make([]bool, s.VectorWidth()),
		window: make(map[uint64][]cycleTrace),
	}
	nl := cfg.NL
	s.OnGateEval = func(gid netlist.GateID, _ sim.VTime) {
		g.cur[cfg.GateParts[gid]].evals++
	}
	g.hopSeen = make([]map[uint64]bool, cfg.K)
	for i := range g.hopSeen {
		g.hopSeen[i] = make(map[uint64]bool)
	}
	g.cpFinish = make([]float64, cfg.K)
	g.cpOld = make([]float64, cfg.K)
	g.inCur = make([]uint64, cfg.K)
	g.inNext = make([]uint64, cfg.K)
	s.OnNetChange = func(n netlist.NetID, t sim.VTime, _ bool) {
		net := &nl.Nets[n]
		if net.Driver == netlist.NoGate {
			return // stimulus, not communication
		}
		src := cfg.GateParts[net.Driver]
		mc := &g.cur[src]
		delta := t % s.DeltaRange
		// One event per (net change, remote reader CLUSTER), as the
		// kernel sends them — dedup over sink gates sharing a cluster.
		var sentTo uint64
		for _, sink := range net.Sinks {
			dst := cfg.GateParts[sink]
			if dst == src || sentTo&(1<<uint(dst)) != 0 {
				continue
			}
			sentTo |= 1 << uint(dst)
			mc.outBundles[dst]++
			if delta > 0 {
				// Mid-cycle crossing: a combinational hop into dst,
				// consumed within the sending cycle.
				g.hopSeen[dst][delta] = true
				g.inCur[dst] |= 1 << uint(src)
			} else {
				// Registered crossing (latch at the cycle boundary):
				// consumed at the receiver's next cycle.
				g.inNext[dst] |= 1 << uint(src)
			}
		}
	}
	return g, nil
}

// cycle returns the trace of the given cycle, generating forward as
// needed.
func (g *traceGen) cycle(c uint64) ([]cycleTrace, error) {
	for g.s.Cycle() <= c {
		k := g.cfg.K
		g.cur = make([]cycleTrace, k)
		bundles := make([]uint64, k*k)
		for m := range g.cur {
			g.cur[m].outBundles = bundles[m*k : (m+1)*k : (m+1)*k]
		}
		cyc := g.s.Cycle()
		g.cfg.Vectors.Vector(cyc, g.vec)
		if _, err := g.s.Step(g.vec); err != nil {
			return nil, err
		}
		for m := range g.hopSeen {
			g.cur[m].recvHops = uint32(len(g.hopSeen[m]))
			for d := range g.hopSeen[m] {
				delete(g.hopSeen[m], d)
			}
		}
		g.foldCritPath()
		g.window[cyc] = g.cur
	}
	tr, ok := g.window[c]
	if !ok {
		return nil, fmt.Errorf("clustersim: trace for cycle %d already discarded", c)
	}
	return tr, nil
}

// foldCritPath advances the critical-path DP by the cycle just
// generated into g.cur: a machine's cycle starts once its own previous
// cycle AND every source machine feeding it a message consumed this
// cycle have finished, then runs for the cycle's evaluation cost.
// Communication and rollback overheads are deliberately excluded — the
// result is the causal lower bound on any schedule.
func (g *traceGen) foldCritPath() {
	copy(g.cpOld, g.cpFinish)
	for m := range g.cpFinish {
		best := g.cpOld[m]
		for mask := g.inCur[m]; mask != 0; mask &= mask - 1 {
			src := bits.TrailingZeros64(mask)
			if g.cpOld[src] > best {
				best = g.cpOld[src]
			}
		}
		g.cpFinish[m] = best + float64(g.cur[m].evals)*g.cfg.Costs.EvalCost
	}
	// Registered crossings generated this cycle are consumed next cycle.
	g.inCur, g.inNext = g.inNext, g.inCur
	for i := range g.inNext {
		g.inNext[i] = 0
	}
}

// critPath is the longest chain folded so far (valid once every cycle
// has been generated).
func (g *traceGen) critPath() float64 {
	best := 0.0
	for _, f := range g.cpFinish {
		if f > best {
			best = f
		}
	}
	return best
}

// discardBelow drops trace cycles below c.
func (g *traceGen) discardBelow(c uint64) {
	for cy := range g.window {
		if cy < c {
			delete(g.window, cy)
		}
	}
}

// --- DES machinery -------------------------------------------------------

type evKind int

const (
	evStep    evKind = iota // machine finishes its current cycle
	evArrival               // message bundle arrives
)

type modelEvent struct {
	wall    float64
	seq     uint64 // tie-break for determinism
	kind    evKind
	machine int32
	// arrival payload
	srcCycle uint64
	count    uint64
}

// modelHeap is a binary min-heap of events ordered on (wall, seq), typed
// so that a push or pop moves a modelEvent and boxes nothing. seq is
// unique, so the order is total and the pop order does not depend on the
// heap's layout.
type modelHeap []modelEvent

func (h modelHeap) less(i, j int) bool {
	if h[i].wall != h[j].wall {
		return h[i].wall < h[j].wall
	}
	return h[i].seq < h[j].seq
}

// push adds e.
func (h *modelHeap) push(e modelEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the least event; the heap must not be empty.
func (h *modelHeap) pop() modelEvent {
	s := *h
	e := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return e
}

type machine struct {
	wall    float64
	cycle   uint64 // next cycle to execute (LVT in cycles)
	maxExec uint64 // furthest cycle ever committed (first executions)
	busy    float64
	events  uint64
	stepIn  bool // a step event is scheduled
	waiting bool // throttled, waiting for the laggard
	// overhead accumulated between steps (arrival processing, rollbacks)
	pendingOverhead float64
}

// Run executes the model.
func Run(cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("clustersim: K must be >= 1")
	}
	if len(cfg.GateParts) != len(cfg.NL.Gates) {
		return nil, fmt.Errorf("clustersim: GateParts covers %d gates, netlist has %d",
			len(cfg.GateParts), len(cfg.NL.Gates))
	}
	if cfg.K > 64 {
		return nil, fmt.Errorf("clustersim: K > 64 not supported")
	}
	for gi, p := range cfg.GateParts {
		if p < 0 || int(p) >= cfg.K {
			return nil, fmt.Errorf("clustersim: gate %d assigned to cluster %d (K=%d)", gi, p, cfg.K)
		}
	}
	cfg.Costs.fill()
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	var gen traceSource
	var err error
	if cfg.Packed != PackedOff {
		gen, err = newPackedGen(&cfg)
	} else {
		gen, err = newTraceGen(&cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Synchronous {
		return runSynchronous(&cfg, gen)
	}

	ms := make([]*machine, cfg.K)
	for i := range ms {
		ms[i] = &machine{}
	}
	var h modelHeap
	var seq uint64
	push := func(e modelEvent) {
		seq++
		e.seq = seq
		h.push(e)
	}
	res := &Result{MachineBusy: make([]float64, cfg.K), MachineEvents: make([]uint64, cfg.K)}

	minCycle := func() uint64 {
		min := uint64(1<<63 - 1)
		for _, m := range ms {
			if m.cycle < min {
				min = m.cycle
			}
		}
		return min
	}

	// startStep begins machine i's next cycle if it may run.
	var startStep func(i int32, now float64) error
	startStep = func(i int32, now float64) error {
		m := ms[i]
		if m.stepIn || m.cycle >= cfg.Cycles {
			return nil
		}
		if m.cycle > minCycle()+cfg.Window {
			m.waiting = true // woken when the laggard advances
			return nil
		}
		m.waiting = false
		tr, err := gen.cycle(m.cycle)
		if err != nil {
			return err
		}
		t := tr[i]
		dur := float64(t.evals)*cfg.Costs.EvalCost + m.pendingOverhead
		// Combinational hop chains serialize one network round trip per
		// hop (first execution and re-execution alike: the stall is paid
		// either as waiting or as another rollback round).
		dur += float64(t.recvHops) * cfg.Costs.MsgLatency
		if m.cycle >= m.maxExec {
			// First execution pays the send-side message CPU;
			// re-execution sends nothing (lazy cancellation).
			nOut := uint64(0)
			for _, n := range t.outBundles {
				nOut += n
			}
			dur += float64(nOut) * cfg.Costs.MsgCPU
		}
		m.pendingOverhead = 0
		start := m.wall
		if now > start {
			start = now
		}
		m.wall = start + dur
		m.busy += dur
		m.stepIn = true
		push(modelEvent{wall: m.wall, kind: evStep, machine: i, srcCycle: m.cycle})
		return nil
	}

	for i := int32(0); i < int32(cfg.K); i++ {
		if err := startStep(i, 0); err != nil {
			return nil, err
		}
	}

	for len(h) > 0 {
		e := h.pop()
		switch e.kind {
		case evStep:
			m := ms[e.machine]
			m.stepIn = false
			cyc := e.srcCycle
			if cyc != m.cycle {
				// A rollback rewound the machine while this cycle was in
				// flight: the work is wasted speculation.
				tr, err := gen.cycle(cyc)
				if err != nil {
					return nil, err
				}
				res.ReexecEvents += tr[e.machine].evals
				if err := startStep(e.machine, m.wall); err != nil {
					return nil, err
				}
				break
			}
			tr, err := gen.cycle(cyc)
			if err != nil {
				return nil, err
			}
			t := tr[e.machine]
			if cyc >= m.maxExec {
				// First execution: commit events and send the cycle's
				// outgoing bundles.
				m.events += t.evals
				res.Events += t.evals
				m.maxExec = cyc + 1
				for dst, n := range t.outBundles {
					if n == 0 {
						continue
					}
					res.Messages += n
					ms[dst].pendingOverhead += float64(n) * cfg.Costs.MsgCPU
					push(modelEvent{
						wall: m.wall + cfg.Costs.MsgLatency, kind: evArrival,
						machine: int32(dst), srcCycle: cyc, count: n,
					})
				}
			} else {
				// Re-execution after a rollback: lazy cancellation means
				// no re-sends; the time was charged by startStep.
				res.ReexecEvents += t.evals
			}
			m.cycle = cyc + 1
			// Trim the trace window well behind the slowest machine
			// (generous margin: rewind targets trail the minimum by at
			// most the skew accumulated during one message latency).
			if low := minCycle(); low > 4*cfg.Window+8 {
				gen.discardBelow(low - 4*cfg.Window - 8)
			}
			if err := startStep(e.machine, m.wall); err != nil {
				return nil, err
			}
			// Wake throttled machines: the laggard may have advanced.
			for j := int32(0); j < int32(cfg.K); j++ {
				if ms[j].waiting {
					if err := startStep(j, m.wall); err != nil {
						return nil, err
					}
				}
			}

		case evArrival:
			m := ms[e.machine]
			if e.srcCycle < m.cycle {
				// Straggler: rewind; the undone cycles re-execute through
				// normal steps (paying EvalCost again), mirroring the
				// kernel's checkpoint-restore-replay.
				res.Rollbacks++
				m.pendingOverhead += cfg.Costs.RollbackCost
				m.cycle = e.srcCycle
			}
			// Receive-side CPU was charged via pendingOverhead at send
			// time; nothing further.
			if m.cycle >= cfg.Cycles {
				// Finished machine: charge straggler handling now, since
				// no further step will absorb the pending overhead.
				if m.pendingOverhead > 0 {
					start := m.wall
					if e.wall > start {
						start = e.wall
					}
					m.wall = start + m.pendingOverhead
					m.busy += m.pendingOverhead
					m.pendingOverhead = 0
				}
			} else if !m.stepIn {
				if err := startStep(e.machine, e.wall); err != nil {
					return nil, err
				}
			}
		}
	}

	for i, m := range ms {
		res.MachineBusy[i] = m.busy
		res.MachineEvents[i] = m.events
		if m.wall > res.ParTime {
			res.ParTime = m.wall
		}
	}
	res.SeqTime = float64(res.Events) * cfg.Costs.EvalCost
	if res.ParTime > 0 {
		res.Speedup = res.SeqTime / res.ParTime
	}
	res.CritPath = gen.critPath()
	if res.CritPath > 0 {
		res.BoundSpeedup = res.SeqTime / res.CritPath
	}
	return res, nil
}
