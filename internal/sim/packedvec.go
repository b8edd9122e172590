// Lane-word plumbing for the 64-wide packed simulator (packed.go): lane
// masks, word-parallel per-lane counters, and the WaveBank that records a
// run as replayable 64-cycle waves and replays each into a
// partition-independent trace.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/netlist"
)

// Lanes is the packed simulator's width: one simulation per bit of a
// uint64 lane-word.
const Lanes = 64

// LaneMask returns the mask with the low n lane bits set (n in 0..64).
func LaneMask(n int) uint64 {
	if n >= Lanes {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// LaneCounter is a word-parallel counter: 64 independent tallies, one per
// lane, stored bit-sliced (plane p holds bit p of every lane's count).
// Add increments every lane in mask by one using an amortized-O(1) carry
// chain of word ops — the packed replacement for 64 scalar callbacks.
type LaneCounter struct {
	planes [Lanes]uint64
	hi     int // planes at index >= hi are zero
}

// Add increments the count of every lane whose bit is set in mask.
func (c *LaneCounter) Add(mask uint64) {
	p := 0
	for ; mask != 0; p++ {
		carry := c.planes[p] & mask
		c.planes[p] ^= mask
		mask = carry
	}
	if p > c.hi {
		c.hi = p
	}
}

// Count returns one lane's tally.
func (c *LaneCounter) Count(lane int) uint64 {
	var n uint64
	for p := 0; p < c.hi; p++ {
		n |= c.planes[p] >> uint(lane) & 1 << uint(p)
	}
	return n
}

// AddPlanes adds to every lane the count x holds for it, bit-sliced as the
// counter itself is: plane p of x holds bit p of every lane's addend. It is
// a ripple-carry adder over whole words, 64 lanes per operation.
func (c *LaneCounter) AddPlanes(x []uint64) {
	var carry uint64
	p := 0
	for ; p < len(x); p++ {
		a, b := c.planes[p], x[p]
		s := a ^ b
		c.planes[p] = s ^ carry
		carry = a&b | s&carry
	}
	for ; carry != 0; p++ {
		next := c.planes[p] & carry
		c.planes[p] ^= carry
		carry = next
	}
	if p > c.hi {
		c.hi = p
	}
}

// Total returns the sum over all lanes.
func (c *LaneCounter) Total() uint64 {
	var n uint64
	for p, w := range c.planes[:c.hi] {
		n += uint64(bits.OnesCount64(w)) << uint(p)
	}
	return n
}

// Reset zeroes every lane.
func (c *LaneCounter) Reset() {
	for p := 0; p < c.hi; p++ {
		c.planes[p] = 0
	}
	c.hi = 0
}

// MaskedNet pairs a net with the lanes (as a bit mask) an update applies
// to.
type MaskedNet struct {
	Net  netlist.NetID
	Mask uint64
}

// Wave is one replayable 64-cycle slice of a run: lane l carries
// cycle Base+l. Words hold each net's entry value per lane (the settled
// state the cycle starts from, before its vector is applied), Pending the
// q-output changes latched by each lane's predecessor cycle (they mark
// sinks dirty at the lane's delta 0), and Vecs the packed stimulus, one
// lane-word per vector PI. Lanes at or above Lanes are zero. A shared
// bank's waves are immutable once built and safe to replay concurrently.
type Wave struct {
	Base    uint64 // first cycle of the wave
	Lanes   int    // populated lanes (1..64; the final wave may be ragged)
	Words   []uint64
	Pending []MaskedNet
	Vecs    []uint64
}

// WaveTrace is what replaying one wave produced, kept in the two forms a
// partition folds: how often each gate evaluated in each lane, and each
// logged net's changes. Neither depends on the partition (a gate
// evaluates, and a net changes, whichever machine owns it), so one trace
// serves every (k, b) point; the cluster model (clustersim) only sums it
// into machines.
type WaveTrace struct {
	Base  uint64
	Lanes int
	// Planes is the bit width of a gate's per-lane evaluation count:
	// Evals[g*Planes+p] holds bit p of gate g's count in every lane, the
	// flip-flops' latch evaluations included.
	Planes int
	Evals  []uint64
	// NetOff indexes the change log by net: net n's changes are
	// Deltas[NetOff[n]:NetOff[n+1]] with the lanes each happened in at the
	// same index of Masks, in replay order. The delta is the replay hook's
	// (0: a latched q change, > 0: a combinational change applied at that
	// delta). Only logged nets (gate-driven, read by a gate, and passing
	// the bank's filter) have entries.
	NetOff []int32
	Deltas []uint32
	Masks  []uint64
}

// Changes returns net n's change log: the deltas and, at the same index,
// the lanes each change happened in.
func (t *WaveTrace) Changes(n netlist.NetID) ([]uint32, []uint64) {
	lo, hi := t.NetOff[n], t.NetOff[n+1]
	return t.Deltas[lo:hi], t.Masks[lo:hi]
}

// WaveBank records a run as waves and replays each wave once into a
// WaveTrace.
//
// All a wave needs of a cycle is its entry state. The scout computes in
// cycle order only what cannot be computed otherwise, the flip-flops: it
// runs a Machine over the whole sweep table with only the d nets live, and
// keeps each q's value per lane. Every other net's entry value follows
// from the previous cycle's vector and q's, so one word-wide pass over the
// sweep table builds all 64 lanes of a wave at once. The replay (PackedSimulator.ReplayWave) alone produces events.
//
// A shared bank (NewWaveBank) serves every (k, b) point of a campaign: it
// keeps each wave's trace once made, releasing the wave's Words, so each
// wave is scouted and replayed once per campaign. A private bank
// (NewPrivateWaveBank) serves one run in wave order: it keeps one wave and
// one trace, reusing their buffers, and logs only the nets its consumer
// reads. Safe for concurrent use; scouting and replay are serialized.
type WaveBank struct {
	mu      sync.Mutex
	src     VectorSource
	cycles  uint64
	private bool
	logged  []bool // per net: the replay logs its changes

	waves   []*Wave      // shared: wave i until traced
	traces  []*WaveTrace // shared: wave i's trace once made
	built   int          // waves scouted so far
	replays int          // waves replayed into a trace so far

	// Scout state, carried from lane to lane and from wave to wave. The
	// machine's slots hold the entry state of the next cycle to record.
	sw       *Sweep
	scout    Machine         // over the whole sweep table, only the d's live
	byQ      []int32         // flip-flop indices in q order: Pending's order
	ones     []netlist.NetID // nets tied to 1
	qBits    []uint64        // per flip-flop: q's entry value per lane of the wave being built
	qCarry   []uint64        // per flip-flop: q's entry value in the last lane of the previous wave
	vecCarry []uint64        // per stimulus input: its vector bit in that lane

	// Replay state: the recording engine and its scratch.
	eng    *PackedSimulator
	evals  []uint64 // per gate: b.planes planes of its count
	planes int      // bits.Len64(DeltaRange): a count never reaches DeltaRange
	top    int      // planes of evals in use by the current replay
	log    []change // the current replay's logged changes, in replay order

	cur    *Wave     // private: the wave last built; its buffers are reused
	trace  WaveTrace // private: the trace last made; its buffers are reused
	traced int       // private: the wave trace holds (-1: none)
}

// change is one logged net change of a replay.
type change struct {
	net   netlist.NetID
	delta uint32
	mask  uint64
}

// NewWaveBank prepares a shared bank covering `cycles` cycles of the given
// stimulus, logging every net's changes. No simulation happens until the
// first Wave or Trace call.
func NewWaveBank(nl *netlist.Netlist, src VectorSource, cycles uint64) (*WaveBank, error) {
	return newWaveBank(nl, src, cycles, false, nil)
}

// NewPrivateWaveBank prepares a bank for one consumer that asks for waves
// and traces in order, each valid until the next call. Its traces log only
// the nets log marks (nil: every net).
func NewPrivateWaveBank(nl *netlist.Netlist, src VectorSource, cycles uint64, log []bool) (*WaveBank, error) {
	return newWaveBank(nl, src, cycles, true, log)
}

func newWaveBank(nl *netlist.Netlist, src VectorSource, cycles uint64, private bool, log []bool) (*WaveBank, error) {
	sw, err := NewSweep(nl)
	if err != nil {
		return nil, err
	}
	b := &WaveBank{
		src:      src,
		cycles:   cycles,
		private:  private,
		logged:   make([]bool, len(nl.Nets)),
		sw:       sw,
		qBits:    make([]uint64, len(sw.ffs)),
		qCarry:   make([]uint64, len(sw.ffs)),
		vecCarry: make([]uint64, len(sw.PIs)),
		traced:   -1,
	}
	for n := range nl.Nets {
		net := &nl.Nets[n]
		b.logged[n] = net.Driver != netlist.NoGate && len(net.Sinks) > 0 && (log == nil || log[n])
		if net.Const == 1 {
			b.ones = append(b.ones, netlist.NetID(n))
		}
	}
	b.byQ = make([]int32, len(sw.ffs))
	for i := range b.byQ {
		b.byQ[i] = int32(i)
	}
	slices.SortFunc(b.byQ, func(i, j int32) int { return int(sw.ffs[i].q) - int(sw.ffs[j].q) })

	b.scout, _ = NewMachine(sw, nil, nil) // only the d's live
	return b, nil
}

// Cycles returns the stimulus length the bank covers.
func (b *WaveBank) Cycles() uint64 { return b.cycles }

// NumWaves returns the total wave count (ceil(cycles/64)).
func (b *WaveBank) NumWaves() int { return int((b.cycles + Lanes - 1) / Lanes) }

// Netlist returns the netlist the bank's waves describe.
func (b *WaveBank) Netlist() *netlist.Netlist { return b.sw.NL }

// DeltaRange returns the delta slots of a cycle (Sweep.DeltaRange): a
// trace's deltas lie below it.
func (b *WaveBank) DeltaRange() uint64 { return b.sw.DeltaRange }

// Replays returns how many waves the bank has replayed into a trace.
func (b *WaveBank) Replays() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replays
}

// Wave returns wave i, running the scout forward as needed. A shared
// bank's wave must not have been traced; a private bank
// serves the wave it built last or the next one, valid until the next
// call.
func (b *WaveBank) Wave(i int) (*Wave, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wave(i)
}

func (b *WaveBank) wave(i int) (*Wave, error) {
	if i < 0 || i >= b.NumWaves() {
		return nil, fmt.Errorf("sim: wave %d out of range (bank has %d)", i, b.NumWaves())
	}
	if b.private {
		switch i {
		case b.built - 1:
		case b.built:
			b.build()
		default:
			return nil, fmt.Errorf("sim: private wave bank asked for wave %d after wave %d", i, b.built-1)
		}
		return b.cur, nil
	}
	for b.built <= i {
		b.build()
		b.waves = append(b.waves, b.cur)
		b.traces = append(b.traces, nil)
	}
	if b.waves[i] == nil {
		return nil, fmt.Errorf("sim: wave %d was released once traced", i)
	}
	return b.waves[i], nil
}

// Trace returns wave i's trace, scouting and replaying it as needed. A
// shared bank replays each wave once and keeps its trace; a private bank
// serves its traces in order, each valid until the next call.
func (b *WaveBank) Trace(i int) (*WaveTrace, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.private {
		if i == b.traced {
			return &b.trace, nil
		}
	} else if i >= 0 && i < len(b.traces) && b.traces[i] != nil {
		return b.traces[i], nil
	}
	w, err := b.wave(i)
	if err != nil {
		return nil, err
	}
	if err := b.replay(w); err != nil {
		return nil, err
	}
	if b.private {
		b.record(w, &b.trace)
		b.traced = i
		return &b.trace, nil
	}
	t := &WaveTrace{}
	b.record(w, t)
	b.traces[i], b.waves[i] = t, nil
	return t, nil
}

// build scouts the next 64 cycles (fewer on the ragged tail) into b.cur:
// a fresh wave in a shared bank, the reused one in a private bank.
//
// Per cycle the scout records each q's entry value and runs its machine's
// Cycle. The cycle starting in lane l then holds the previous cycle's
// vector on the stimulus inputs and q_l on the q's, and every gate's output
// is its function of the previous cycle's vector and q's — lane l-1's, or
// the previous wave's last lane's for lane 0 (zeros before cycle 0: the
// power-on state). One pass over the sweep table in topological order
// evaluates every gate on those words; the q's are set to q_l after it,
// and Pending is where q_l differs from the previous lane's q.
func (b *WaveBank) build() {
	sw := b.sw
	nl := sw.NL
	base := uint64(b.built) * Lanes
	lanes := Lanes
	if rem := b.cycles - base; rem < Lanes {
		lanes = int(rem)
	}
	w := b.cur
	if w == nil || !b.private {
		w = &Wave{Words: make([]uint64, len(nl.Nets)), Vecs: make([]uint64, len(sw.PIs))}
		b.cur = w
	} else {
		// Every net the pass below writes it writes whole; the others
		// (clocks, undriven nets) stay zero.
		clear(w.Vecs)
		w.Pending = w.Pending[:0]
	}
	w.Base, w.Lanes = base, lanes

	q := b.scout.Slots[:len(sw.ffs)]
	for l := 0; l < lanes; l++ {
		for i, v := range q {
			b.qBits[i] |= uint64(b2u(v)) << l
		}
		b.scout.Cycle(b.src, base+uint64(l))
		for i, v := range b.scout.vec {
			w.Vecs[i] |= uint64(b2u(v)) << l
		}
	}

	active := LaneMask(lanes)
	words := w.Words
	for _, n := range b.ones {
		words[n] = active
	}
	for i, pi := range sw.PIs {
		words[pi] = (w.Vecs[i]<<1 | b.vecCarry[i]) & active
		b.vecCarry[i] = w.Vecs[i] >> (Lanes - 1)
	}
	for i, f := range sw.ffs {
		words[f.q] = (b.qBits[i]<<1 | b.qCarry[i]) & active
	}
	for i := range sw.tab {
		t := &sw.tab[i]
		if t.TT < Wide {
			words[t.Out] = ttWord(t.TT, words[t.A], words[t.B]) & active
		} else {
			words[t.Out] = evalPackedGate(&nl.Gates[t.A], words) & active
		}
	}
	for _, i := range b.byQ {
		f := &sw.ffs[i]
		if pending := words[f.q] ^ b.qBits[i]; pending != 0 {
			w.Pending = append(w.Pending, MaskedNet{Net: f.q, Mask: pending})
		}
		words[f.q] = b.qBits[i]
		b.qCarry[i] = b.qBits[i] >> (Lanes - 1)
		b.qBits[i] = 0
	}
	b.built++
}

// replay runs w on the bank's engine through the recording hooks: every
// evaluation increments its gate's bit-sliced count, every change of a
// logged net is appended to b.log.
func (b *WaveBank) replay(w *Wave) error {
	if b.eng == nil {
		b.eng = NewPacked(b)
		b.planes = bits.Len64(b.eng.DeltaRange)
		b.evals = make([]uint64, len(b.sw.NL.Gates)*b.planes)
		b.eng.OnGateEvalMask = func(g netlist.GateID, _ uint64, mask uint64) {
			c := b.evals[int(g)*b.planes:]
			p := 0
			for ; mask != 0; p++ {
				carry := c[p] & mask
				c[p] ^= mask
				mask = carry
			}
			b.top = max(b.top, p)
		}
		b.eng.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
			if b.logged[n] {
				b.log = append(b.log, change{net: n, delta: uint32(delta), mask: mask})
			}
		}
	}
	clear(b.evals)
	b.top, b.log = 0, b.log[:0]
	b.replays++
	return b.eng.ReplayWave(w)
}

// record fills t from the replay of w just made: the gate counts, keeping
// only the planes the replay used, and the change log grouped by net. A
// shared bank's trace is fresh and sized exactly; a private bank reuses
// t's buffers and compacts b.evals in place.
func (b *WaveBank) record(w *Wave, t *WaveTrace) {
	t.Base, t.Lanes, t.Planes = w.Base, w.Lanes, b.top
	gates, top := len(b.sw.NL.Gates), b.top
	if b.private {
		t.Evals = b.evals[:gates*top]
	} else {
		t.Evals = make([]uint64, gates*top)
	}
	for g := 0; g < gates; g++ {
		copy(t.Evals[g*top:(g+1)*top], b.evals[g*b.planes:g*b.planes+top])
	}

	nets := len(b.logged)
	if b.private && t.NetOff != nil {
		clear(t.NetOff)
	} else {
		t.NetOff = make([]int32, nets+1)
	}
	off := t.NetOff
	for _, c := range b.log {
		off[c.net+1]++
	}
	// off[n+1] becomes where net n's changes start, then (as they are
	// placed) where they end: net n+1's start.
	var sum int32
	for n := 1; n <= nets; n++ {
		sum, off[n] = sum+off[n], sum
	}
	if b.private {
		t.Deltas = slices.Grow(t.Deltas[:0], len(b.log))[:len(b.log)]
		t.Masks = slices.Grow(t.Masks[:0], len(b.log))[:len(b.log)]
	} else {
		t.Deltas = make([]uint32, len(b.log))
		t.Masks = make([]uint64, len(b.log))
	}
	for _, c := range b.log {
		j := off[c.net+1]
		off[c.net+1]++
		t.Deltas[j], t.Masks[j] = c.delta, c.mask
	}
}
