package sim

import (
	"math/rand"

	"repro/internal/netlist"
)

// VectorSource produces input vectors, one per cycle.
type VectorSource interface {
	// Vector fills buf with the stimulus for the given cycle.
	Vector(cycle uint64, buf []bool)
}

// RandomVectors is the paper's stimulus: independent uniformly random bits
// each cycle, deterministic per seed. The same (seed, cycle) always yields
// the same vector, so the sequential simulator and the Time Warp kernel
// see identical stimuli.
type RandomVectors struct {
	Seed int64
}

// Vector fills buf with the random vector for `cycle`.
func (r RandomVectors) Vector(cycle uint64, buf []bool) {
	// A PRNG seeded per cycle keeps vectors independent of how many bits
	// earlier cycles consumed (random access by cycle). Seed resets the
	// generator's whole state, so a reused one yields the stream a fresh
	// one would, without allocating its 4.9 kB per cycle.
	var rng *rand.Rand
	select {
	case rng = <-idleRNGs:
	default:
		rng = rand.New(rand.NewSource(0))
	}
	rng.Seed(r.Seed ^ int64(cycle*0x9E3779B97F4A7C15))
	for i := range buf {
		buf[i] = rng.Int63()&1 == 1
	}
	select {
	case idleRNGs <- rng:
	default: // more callers at once than the list holds
	}
}

// idleRNGs is a leaky free list of RandomVectors' generators. Unlike a
// sync.Pool it drops none while it has room, so a run allocates the same
// whatever the collector or the race detector does.
var idleRNGs = make(chan *rand.Rand, 8)

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
	waves := make(map[netlist.NetID][]bool, len(observe))
	rows := make([][]bool, len(observe)) // waves[observe[i]], without the lookup per cycle
	for i, n := range observe {
		if waves[n] == nil {
			waves[n] = make([]bool, cycles)
		}
		rows[i] = waves[n]
	}
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
