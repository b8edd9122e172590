// Lane-word plumbing for the 64-wide packed simulator (packed.go): lane
// masks, word-parallel per-lane counters, and the WaveBank that records a
// run as replayable 64-cycle waves.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
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
// lane-word per vector PI. Waves are immutable once built and safe to
// replay concurrently.
type Wave struct {
	Base    uint64 // first cycle of the wave
	Lanes   int    // populated lanes (1..64; the final wave may be ragged)
	Words   []uint64
	Pending []MaskedNet
	Vecs    []uint64
}

// WaveBank lazily records a run as waves. All a wave needs of a cycle is
// its entry state — the settled state the previous cycle left, with the
// flip-flops already flipped — and a settled state has no deltas, events
// or hooks in it, so the bank scouts each cycle with Sweep.Step; the
// replay (PackedSimulator.ReplayWave) alone produces events. Waves are
// partition-independent, so one bank built from (netlist, vectors,
// cycles) serves every (k, b) point of a pre-simulation campaign — the
// scout runs once, each point only replays. Safe for concurrent use; wave
// construction is serialized.
type WaveBank struct {
	mu     sync.Mutex
	src    VectorSource
	cycles uint64
	waves  []*Wave
	floor  int // waves below this index have been discarded

	// Scout state, carried from lane to lane and from wave to wave.
	sw     *Sweep   // its state is the entry state of the next cycle to record
	qMask  []uint64 // per flip-flop: lanes of the wave being built that q is pending in
	vecBuf []bool
}

// NewWaveBank prepares a bank covering `cycles` cycles of the given
// stimulus. No simulation happens until the first Wave call.
func NewWaveBank(nl *netlist.Netlist, src VectorSource, cycles uint64) (*WaveBank, error) {
	sw, err := NewSweep(nl)
	if err != nil {
		return nil, err
	}
	return &WaveBank{
		src:    src,
		cycles: cycles,
		sw:     sw,
		qMask:  make([]uint64, len(sw.ffs)),
		vecBuf: make([]bool, len(sw.PIs)),
	}, nil
}

// Cycles returns the stimulus length the bank covers.
func (b *WaveBank) Cycles() uint64 { return b.cycles }

// NumWaves returns the total wave count (ceil(cycles/64)).
func (b *WaveBank) NumWaves() int { return int((b.cycles + Lanes - 1) / Lanes) }

// Netlist returns the netlist the bank's waves describe.
func (b *WaveBank) Netlist() *netlist.Netlist { return b.sw.NL }

// Wave returns wave i, running the scout forward as needed. Waves must
// not have been discarded below i.
func (b *WaveBank) Wave(i int) (*Wave, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.NumWaves() {
		return nil, fmt.Errorf("sim: wave %d out of range (bank has %d)", i, b.NumWaves())
	}
	if i < b.floor {
		return nil, fmt.Errorf("sim: wave %d already discarded", i)
	}
	for len(b.waves) <= i {
		b.buildNext()
	}
	return b.waves[i], nil
}

// DiscardBelow releases waves below index i (single-consumer banks trim
// behind themselves; shared campaign banks retain everything).
func (b *WaveBank) DiscardBelow(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w := b.floor; w < i && w < len(b.waves); w++ {
		b.waves[w] = nil
	}
	if i > b.floor {
		b.floor = i
	}
}

// buildNext scouts the next 64 cycles (fewer on the ragged tail) into a
// wave. Lane l takes the state as cycle Base+l finds it and the q's the
// previous latch flipped (they mark sinks dirty at the lane's delta 0);
// then the sweep steps the cycle. Lanes at or above Wave.Lanes stay zero.
func (b *WaveBank) buildNext() {
	sw := b.sw
	base := uint64(len(b.waves)) * Lanes
	lanes := Lanes
	if rem := b.cycles - base; rem < Lanes {
		lanes = int(rem)
	}
	w := &Wave{
		Base:  base,
		Lanes: lanes,
		Words: make([]uint64, len(sw.values)),
		Vecs:  make([]uint64, len(sw.PIs)),
	}
	words := w.Words[:len(sw.values)]
	for l := 0; l < lanes; l++ {
		for n, v := range sw.values {
			words[n] |= uint64(b2u(v)) << l
		}
		for _, i := range sw.flipped {
			b.qMask[i] |= 1 << l
		}
		b.src.Vector(base+uint64(l), b.vecBuf)
		for i, v := range b.vecBuf {
			w.Vecs[i] |= uint64(b2u(v)) << l
		}
		sw.Step(b.vecBuf)
	}
	for i, m := range b.qMask {
		if m != 0 {
			w.Pending = append(w.Pending, MaskedNet{Net: sw.ffs[i].q, Mask: m})
			b.qMask[i] = 0
		}
	}
	sort.Slice(w.Pending, func(i, j int) bool { return w.Pending[i].Net < w.Pending[j].Net })
	b.waves = append(b.waves, w)
}
