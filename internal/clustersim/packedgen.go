// packedGen: the 64-wide bit-parallel trace generator. Where traceGen
// replays the sequential simulator with one callback per gate evaluation
// and per net change, packedGen replays a recorded WaveBank on the
// PackedSimulator — 64 cycles per wave, one uint64 lane-word per net —
// and folds the mask hooks into per-machine counters word-parallel:
//
//   - gate evaluations per machine: one bit-sliced LaneCounter.Add per
//     evaluated gate (64 lanes per call) instead of 64 callbacks;
//   - message bundles per (src, dst): a LaneCounter per cluster pair,
//     with sink-cluster dedup done once per change word;
//   - receive hops: one OR into a per-(machine, delta) lane mask per
//     arrival — the per-lane distinct-delta count falls out of the bit
//     columns at wave end;
//   - critical-path sources: per-(dst, src) lane masks, folded into the
//     same DP recurrence lane by lane.
//
// The per-cycle traces it hands the DES are bit-identical to traceGen's
// (differentially tested across all workloads), so every Result field —
// times, messages, rollbacks, critical path — is unchanged to the bit.
// The wave bank is partition-independent: a campaign shares one bank
// across every (k, b) point and only this cheap replay runs per point.
package clustersim

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/sim"
)

type packedGen struct {
	cfg     *Config
	bank    *sim.WaveBank
	ownBank bool // private bank: trim waves behind the replay
	eng     *sim.PackedSimulator

	window    map[uint64][]cycleTrace // cycle → per-machine trace
	generated uint64                  // cycles folded into window so far
	trimmed   uint64                  // cycles below this have been discarded
	nextWave  int

	// Per-wave word-parallel accumulators, reset between waves.
	evalCnt   []sim.LaneCounter // per machine
	bundleCnt []sim.LaneCounter // per (src*K + dst)
	hopMask   [][]uint64        // per machine, per delta: lanes with arrivals
	midSrc    []uint64          // per (dst*K + src): lanes with mid-cycle crossings
	regSrc    []uint64          // per (dst*K + src): lanes with registered crossings

	// Critical-path DP, folded lane by lane (identically to traceGen).
	cpFinish []float64
	cpOld    []float64
	regPrev  []uint64 // per machine: src mask consumed by the next cycle

	// Per-net communication shape, precomputed once: the driver's cluster
	// and the deduplicated remote sink clusters (nil = no remote readers,
	// or a stimulus net). Replaces the per-event fanout walk + dedup.
	srcCl  []int32
	remDst [][]int32
}

func newPackedGen(cfg *Config) (*packedGen, error) {
	bank := cfg.Waves
	own := false
	if bank == nil {
		var err error
		bank, err = sim.NewWaveBank(cfg.NL, cfg.Vectors, cfg.Cycles)
		if err != nil {
			return nil, err
		}
		own = true
	} else {
		if bank.Netlist() != cfg.NL {
			return nil, fmt.Errorf("clustersim: shared wave bank built from a different netlist")
		}
		if bank.Cycles() < cfg.Cycles {
			return nil, fmt.Errorf("clustersim: shared wave bank covers %d cycles, run needs %d",
				bank.Cycles(), cfg.Cycles)
		}
	}
	eng := sim.NewPacked(bank)
	k := cfg.K
	g := &packedGen{
		cfg:       cfg,
		bank:      bank,
		ownBank:   own,
		eng:       eng,
		window:    make(map[uint64][]cycleTrace),
		evalCnt:   make([]sim.LaneCounter, k),
		bundleCnt: make([]sim.LaneCounter, k*k),
		hopMask:   make([][]uint64, k),
		midSrc:    make([]uint64, k*k),
		regSrc:    make([]uint64, k*k),
		cpFinish:  make([]float64, k),
		cpOld:     make([]float64, k),
		regPrev:   make([]uint64, k),
	}
	for m := range g.hopMask {
		g.hopMask[m] = make([]uint64, eng.DeltaRange)
	}
	parts := cfg.GateParts
	nl := cfg.NL
	// One entry per (net change, remote reader CLUSTER), as the kernel
	// sends them: the dedup over sink gates sharing a cluster is partition
	// shape, not trace data, so compute it once per net up front.
	g.srcCl = make([]int32, len(nl.Nets))
	g.remDst = make([][]int32, len(nl.Nets))
	for n := range nl.Nets {
		net := &nl.Nets[n]
		if net.Driver == netlist.NoGate {
			continue // stimulus, not communication
		}
		src := parts[net.Driver]
		g.srcCl[n] = src
		var sentTo uint64
		for _, sink := range net.Sinks {
			dst := parts[sink]
			if dst == src || sentTo&(1<<uint(dst)) != 0 {
				continue
			}
			sentTo |= 1 << uint(dst)
			g.remDst[n] = append(g.remDst[n], dst)
		}
	}
	eng.OnGateEvalMask = func(gid netlist.GateID, _ uint64, mask uint64) {
		g.evalCnt[parts[gid]].Add(mask)
	}
	eng.OnNetChangeMask = func(n netlist.NetID, delta uint64, mask uint64, _ uint64) {
		dsts := g.remDst[n]
		if dsts == nil {
			return
		}
		src := g.srcCl[n]
		for _, dst := range dsts {
			g.bundleCnt[int(src)*k+int(dst)].Add(mask)
			if delta > 0 {
				// Mid-cycle crossing: a combinational hop into dst,
				// consumed within the sending cycle.
				g.hopMask[dst][delta] |= mask
				g.midSrc[int(dst)*k+int(src)] |= mask
			} else {
				// Registered crossing (latch at the cycle boundary):
				// consumed at the receiver's next cycle.
				g.regSrc[int(dst)*k+int(src)] |= mask
			}
		}
	}
	return g, nil
}

// cycle returns the trace of the given cycle, replaying waves forward as
// needed.
func (g *packedGen) cycle(c uint64) ([]cycleTrace, error) {
	for g.generated <= c {
		if err := g.replayNextWave(); err != nil {
			return nil, err
		}
	}
	tr, ok := g.window[c]
	if !ok {
		return nil, fmt.Errorf("clustersim: trace for cycle %d already discarded", c)
	}
	return tr, nil
}

// replayNextWave replays one 64-cycle wave on the packed engine and
// unpacks the word-parallel accumulators into per-cycle traces.
func (g *packedGen) replayNextWave() error {
	w, err := g.bank.Wave(g.nextWave)
	if err != nil {
		return err
	}
	k := g.cfg.K
	for m := 0; m < k; m++ {
		g.evalCnt[m].Reset()
		for d := range g.hopMask[m] {
			g.hopMask[m][d] = 0
		}
	}
	for i := range g.bundleCnt {
		g.bundleCnt[i].Reset()
		g.midSrc[i] = 0
		g.regSrc[i] = 0
	}
	if err := g.eng.ReplayWave(w); err != nil {
		return err
	}
	for l := 0; l < w.Lanes; l++ {
		cyc := w.Base + uint64(l)
		cur := make([]cycleTrace, k)
		for m := 0; m < k; m++ {
			cur[m].evals = g.evalCnt[m].Count(l)
			for dst := 0; dst < k; dst++ {
				if n := g.bundleCnt[m*k+dst].Count(l); n > 0 {
					if cur[m].outBundles == nil {
						cur[m].outBundles = make(map[int32]uint64)
					}
					cur[m].outBundles[int32(dst)] = n
				}
			}
			hops := uint32(0)
			for _, dm := range g.hopMask[m][1:] {
				hops += uint32(dm >> uint(l) & 1)
			}
			cur[m].recvHops = hops
		}
		g.foldCritPath(cur, l)
		g.window[cyc] = cur
		g.generated = cyc + 1
	}
	g.nextWave++
	if g.ownBank {
		// Private bank: a wave is never replayed twice (rollback re-reads
		// are served from the trace window), so trim immediately.
		g.bank.DiscardBelow(g.nextWave)
	}
	return nil
}

// foldCritPath advances the critical-path DP by lane l of the current
// wave — the same recurrence as traceGen.foldCritPath, with the source
// bitmasks read out of the per-(dst, src) lane masks: a machine consumes
// this cycle the mid-cycle crossings of lane l plus the registered
// crossings of the previous lane (carried in regPrev).
func (g *packedGen) foldCritPath(cur []cycleTrace, l int) {
	k := g.cfg.K
	copy(g.cpOld, g.cpFinish)
	for m := 0; m < k; m++ {
		in := g.regPrev[m]
		for src := 0; src < k; src++ {
			in |= g.midSrc[m*k+src] >> uint(l) & 1 << uint(src)
		}
		best := g.cpOld[m]
		for mask := in; mask != 0; mask &= mask - 1 {
			src := bits.TrailingZeros64(mask)
			if g.cpOld[src] > best {
				best = g.cpOld[src]
			}
		}
		g.cpFinish[m] = best + float64(cur[m].evals)*g.cfg.Costs.EvalCost
	}
	for m := 0; m < k; m++ {
		var in uint64
		for src := 0; src < k; src++ {
			in |= g.regSrc[m*k+src] >> uint(l) & 1 << uint(src)
		}
		g.regPrev[m] = in
	}
}

// critPath is the longest chain folded so far (valid once every cycle
// has been generated).
func (g *packedGen) critPath() float64 {
	best := 0.0
	for _, f := range g.cpFinish {
		if f > best {
			best = f
		}
	}
	return best
}

// discardBelow drops trace cycles below c. The window holds the dense
// range [trimmed, generated), so advancing the floor key by key deletes
// each cycle exactly once over the whole run — no map iteration.
func (g *packedGen) discardBelow(c uint64) {
	if c > g.generated {
		c = g.generated
	}
	for ; g.trimmed < c; g.trimmed++ {
		delete(g.window, g.trimmed)
	}
}
