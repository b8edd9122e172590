package sim

import "repro/internal/netlist"

// VectorSource produces input vectors, one per cycle.
type VectorSource interface {
	// Vector fills buf with the stimulus for the given cycle. A cluster of
	// the Time Warp kernel calls it once for every cycle it executes, and
	// the clusters of a host call it concurrently, so an implementation keeps no state between
	// calls that another caller could see.
	Vector(cycle uint64, buf []bool)
}

// RandomVectors is the paper's stimulus: independent uniformly random bits
// each cycle, deterministic per seed. The same (seed, cycle) always yields
// the same vector, so the sequential simulator and the Time Warp kernel
// see identical stimuli. It is stateless, safe for concurrent calls, and
// costs O(len(buf)) a call.
//
// Bit i of cycle c's vector is the low bit of the i-th Int63 of a fresh
// math/rand generator seeded with Seed ^ c·0x9E3779B97F4A7C15 — a seed
// per cycle, so vectors are independent of how many bits earlier cycles
// consumed. Vector computes that stream without running the generator,
// whose seeding alone takes 1,841 Lehmer steps.
type RandomVectors struct {
	Seed int64
}

// Vector fills buf with the random vector for `cycle`.
func (r RandomVectors) Vector(cycle uint64, buf []bool) {
	x0 := seedState(r.Seed ^ int64(cycle*0x9E3779B97F4A7C15))
	for k := range buf {
		var a, b bool // the low bits of the two words math/rand adds
		if k >= rngLen {
			a = buf[k-rngLen]
		} else {
			a = registerBit((rngFeed-k+rngLen)%rngLen, x0)
		}
		if k >= rngTap {
			b = buf[k-rngTap]
		} else {
			b = registerBit(rngLen-1-k, x0)
		}
		buf[k] = a != b
	}
}

// math/rand's source is an additive lagged Fibonacci generator over a
// register of rngLen words. Its k-th output (k from 0) is the sum of the
// words at feed (rngFeed−k) mod rngLen and tap (rngLen−1−k) mod rngLen,
// stored back at feed. Only the low bit reaches a vector, and the low bit
// of a sum is the XOR of its operands' low bits. The feed word was last
// stored by output k−rngLen, the tap word by output k−rngTap; before those
// outputs exist, both are the register as seeding left it. Seeding fills
// word j with three consecutive states of the Lehmer generator
// x ← 48271·x mod (2³¹−1), shifted by 40, 20 and 0 bits and XORed with
// rngCooked[j], so its low bit is that of the third state, seedPow[j]·x0,
// XOR that of rngCooked[j].
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap - 1
	int32max = 1<<31 - 1
)

// seedPow[j] is 48271^(23+3j) mod (2³¹−1): seeding runs 20 Lehmer steps,
// then three per register word.
var seedPow = func() (p [rngLen]uint64) {
	const a = 48271
	x := uint64(1)
	for range 23 {
		x = mulMod(x, a)
	}
	for j := range p {
		p[j] = x
		x = mulMod(mulMod(mulMod(x, a), a), a)
	}
	return p
}()

// cookedLSB holds the low bit of math/rand's rngCooked[j] at bit j%64 of
// word j/64 (from src/math/rand/rng.go, which the Go 1 compatibility
// promise for seeded streams keeps fixed).
var cookedLSB = [10]uint64{
	0x34bdc15fe90e24ee, 0xe95404ae5ce73534, 0xbbd7f689a5256b08, 0xaeb4650eee313691,
	0x6249d76fb9adf55b, 0xa4f0e18dea77bee7, 0x48d22e717f559c40, 0x2dd2484db9f7c5cc,
	0x8ab85710d8697d7f, 0x0000000034a02fb3,
}

// registerBit is the low bit of register word j after seeding from x0.
func registerBit(j int, x0 uint64) bool {
	return (mulMod(seedPow[j], x0)^cookedLSB[j/64]>>(j%64))&1 != 0
}

// mulMod is a·b mod 2³¹−1 for a, b < 2³¹, folded the Mersenne way: 2³¹ ≡ 1.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// seedState is math/rand's Seed normalisation: the Lehmer generator's
// starting state for seed, in 1..2³¹−2.
func seedState(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Run drives the simulator with cycles vectors from src and returns the
// total number of gate evaluations.
func (s *Simulator) Run(src VectorSource, cycles uint64) (uint64, error) {
	buf := make([]bool, s.VectorWidth())
	start := s.Events
	for c := uint64(0); c < cycles; c++ {
		src.Vector(s.Cycle(), buf)
		if _, err := s.Step(buf); err != nil {
			return s.Events - start, err
		}
	}
	return s.Events - start, nil
}

// StateNets returns the primary outputs plus every flip-flop output: the
// design's whole registered state, which is what a differential against
// Record should watch — a wrong value that never reaches a primary output
// within the run still shows in the register that holds it.
func StateNets(nl *netlist.Netlist) []netlist.NetID {
	nets := append([]netlist.NetID(nil), nl.POs...)
	for i := range nl.Gates {
		if g := &nl.Gates[i]; g.Kind.Sequential() && !nl.Nets[g.Output].IsPO {
			nets = append(nets, g.Output)
		}
	}
	return nets
}

// Record is the sequential reference run every parallel simulator is held
// against: a fresh Simulator over nl driven with cycles vectors from src,
// returning the post-latch value of each net of observe after every cycle
// (waves[n][c], the layout of timewarp.Result.Observed).
func Record(nl *netlist.Netlist, src VectorSource, cycles uint64, observe []netlist.NetID) (map[netlist.NetID][]bool, error) {
	s, err := New(nl)
	if err != nil {
		return nil, err
	}
	waves, rows := newWaves(observe, cycles)
	buf := make([]bool, s.VectorWidth())
	for c := uint64(0); c < cycles; c++ {
		src.Vector(c, buf)
		if _, err := s.Step(buf); err != nil {
			return nil, err
		}
		for i, n := range observe {
			rows[i][c] = s.Value(n)
		}
	}
	return waves, nil
}

// Levelized returns what Record returns, computed by a Machine over nl's
// whole table with the observed nets named: the two-valued levelized cycle,
// compile included, in one goroutine.
func Levelized(nl *netlist.Netlist, src VectorSource, cycles uint64, observe []netlist.NetID) (map[netlist.NetID][]bool, error) {
	sw, err := NewSweep(nl)
	if err != nil {
		return nil, err
	}
	m, slots := NewMachine(sw, nil, observe)
	waves, rows := newWaves(observe, cycles)
	for c := uint64(0); c < cycles; c++ {
		m.Cycle(src, c)
		for i, s := range slots {
			rows[i][c] = m.Slots[s]
		}
	}
	return waves, nil
}

// newWaves returns the waves of a run over cycles cycles that observes
// observe, and rows[i], waves[observe[i]], to fill without a lookup per
// cycle.
func newWaves(observe []netlist.NetID, cycles uint64) (waves map[netlist.NetID][]bool, rows [][]bool) {
	waves = make(map[netlist.NetID][]bool, len(observe))
	rows = make([][]bool, len(observe))
	for i, n := range observe {
		if waves[n] == nil {
			waves[n] = make([]bool, cycles)
		}
		rows[i] = waves[n]
	}
	return waves, rows
}
