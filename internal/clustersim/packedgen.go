// packedGen: the 64-wide bit-parallel trace generator. Where traceGen
// replays the sequential simulator with one callback per gate evaluation
// and per net change, packedGen folds the WaveBank's traces — each wave's
// partition-independent record of its replay (sim.WaveTrace) — into
// per-machine counters word-parallel:
//
//   - gate evaluations per machine: each gate's bit-sliced per-lane count
//     added into its machine's LaneCounter, 64 lanes per word op;
//   - message bundles per (src, dst): a LaneCounter per cluster pair, fed
//     from the change logs of the cut nets only, with sink-cluster dedup
//     done once per net;
//   - receive hops: one OR into a per-(machine, delta) lane mask per
//     arrival — the per-lane distinct-delta count falls out of the bit
//     columns at wave end;
//   - critical-path sources: per-(dst, src) lane masks, folded into the
//     same DP recurrence lane by lane.
//
// The per-cycle traces it hands the DES are bit-identical to traceGen's
// (differentially tested across all workloads), so every Result field —
// times, messages, rollbacks, critical path — is unchanged to the bit.
// The traces do not depend on the partition: a campaign shares one bank
// across every (k, b) point, which replays each wave once, and each point
// only folds. A run without a shared bank keeps a private one that logs
// only its cut nets.
package clustersim

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/sim"
)

type packedGen struct {
	cfg  *Config
	bank *sim.WaveBank

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

	// The nets the kernel would send, precomputed once: every gate-driven
	// net read in another cluster than its driver's.
	cut []cutNet
}

// cutNet is a net with remote readers: the driver's cluster and the
// deduplicated clusters reading it.
type cutNet struct {
	net  netlist.NetID
	src  int32
	dsts []int32
}

func newPackedGen(cfg *Config) (*packedGen, error) {
	k := cfg.K
	parts := cfg.GateParts
	nl := cfg.NL
	g := &packedGen{
		cfg:       cfg,
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
	// One entry per (net change, remote reader CLUSTER), as the kernel
	// sends them: the dedup over sink gates sharing a cluster is partition
	// shape, not trace data, so compute it once per net up front.
	for n := range nl.Nets {
		net := &nl.Nets[n]
		if net.Driver == netlist.NoGate {
			continue // stimulus, not communication
		}
		src := parts[net.Driver]
		var sentTo uint64
		var dsts []int32
		for _, sink := range net.Sinks {
			dst := parts[sink]
			if dst == src || sentTo&(1<<uint(dst)) != 0 {
				continue
			}
			sentTo |= 1 << uint(dst)
			dsts = append(dsts, dst)
		}
		if dsts != nil {
			g.cut = append(g.cut, cutNet{net: netlist.NetID(n), src: src, dsts: dsts})
		}
	}

	bank := cfg.Waves
	if bank == nil {
		log := make([]bool, len(nl.Nets))
		for _, c := range g.cut {
			log[c.net] = true
		}
		var err error
		if bank, err = sim.NewPrivateWaveBank(nl, cfg.Vectors, cfg.Cycles, log); err != nil {
			return nil, err
		}
	} else {
		if bank.Netlist() != nl {
			return nil, fmt.Errorf("clustersim: shared wave bank built from a different netlist")
		}
		if bank.Cycles() < cfg.Cycles {
			return nil, fmt.Errorf("clustersim: shared wave bank covers %d cycles, run needs %d",
				bank.Cycles(), cfg.Cycles)
		}
	}
	g.bank = bank
	for m := range g.hopMask {
		g.hopMask[m] = make([]uint64, bank.DeltaRange())
	}
	return g, nil
}

// cycle returns the trace of the given cycle, folding waves forward as
// needed.
func (g *packedGen) cycle(c uint64) ([]cycleTrace, error) {
	for g.generated <= c {
		if err := g.foldNextWave(); err != nil {
			return nil, err
		}
	}
	tr, ok := g.window[c]
	if !ok {
		return nil, fmt.Errorf("clustersim: trace for cycle %d already discarded", c)
	}
	return tr, nil
}

// foldNextWave folds the next wave's trace into the word-parallel
// accumulators and unpacks them into per-cycle traces. A wave's traces
// share one array, and their bundles another.
func (g *packedGen) foldNextWave() error {
	tr, err := g.bank.Trace(g.nextWave)
	if err != nil {
		return err
	}
	k := g.cfg.K
	for m := 0; m < k; m++ {
		g.evalCnt[m].Reset()
		clear(g.hopMask[m])
	}
	for i := range g.bundleCnt {
		g.bundleCnt[i].Reset()
		g.midSrc[i] = 0
		g.regSrc[i] = 0
	}
	p := tr.Planes
	for gi, m := range g.cfg.GateParts {
		g.evalCnt[m].AddPlanes(tr.Evals[gi*p : gi*p+p])
	}
	for _, c := range g.cut {
		deltas, masks := tr.Changes(c.net)
		for j, mask := range masks {
			delta := deltas[j]
			for _, dst := range c.dsts {
				g.bundleCnt[int(c.src)*k+int(dst)].Add(mask)
				if delta > 0 {
					// Mid-cycle crossing: a combinational hop into dst,
					// consumed within the sending cycle.
					g.hopMask[dst][delta] |= mask
					g.midSrc[int(dst)*k+int(c.src)] |= mask
				} else {
					// Registered crossing (latch at the cycle boundary):
					// consumed at the receiver's next cycle.
					g.regSrc[int(dst)*k+int(c.src)] |= mask
				}
			}
		}
	}

	traces := make([]cycleTrace, tr.Lanes*k)
	bundles := make([]uint64, tr.Lanes*k*k)
	for l := 0; l < tr.Lanes; l++ {
		cyc := tr.Base + uint64(l)
		cur := traces[l*k : (l+1)*k : (l+1)*k]
		for m := 0; m < k; m++ {
			cur[m].evals = g.evalCnt[m].Count(l)
			out := bundles[(l*k+m)*k : (l*k+m+1)*k : (l*k+m+1)*k]
			for dst := range out {
				out[dst] = g.bundleCnt[m*k+dst].Count(l)
			}
			cur[m].outBundles = out
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
