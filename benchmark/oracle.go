package main

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
)

// checker counts oracle checks: every check is one attempted operation,
// every false one a failure whose message is kept for the report.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// waveDigest is cmd/vsim's waveform fingerprint: SHA-256 over one byte
// per (net, cycle), nets in the given order.
func waveDigest(nets []netlist.NetID, waves map[netlist.NetID][]bool) [sha256.Size]byte {
	h := sha256.New()
	for _, n := range nets {
		row := make([]byte, len(waves[n]))
		for i, v := range waves[n] {
			if v {
				row[i] = 1
			}
		}
		h.Write(row)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// runSeq is the sequential oracle: it steps sim.Simulator over the
// stimulus and records the post-latch value of every observed net after
// every cycle, which is what timewarp.Result.Observed holds.
func runSeq(nl *netlist.Netlist, vs sim.VectorSource, cycles uint64, observe []netlist.NetID) (map[netlist.NetID][]bool, uint64, error) {
	s, err := sim.New(nl)
	if err != nil {
		return nil, 0, err
	}
	waves := make(map[netlist.NetID][]bool, len(observe))
	for _, n := range observe {
		waves[n] = make([]bool, 0, cycles)
	}
	buf := make([]bool, s.VectorWidth())
	var events uint64
	for c := uint64(0); c < cycles; c++ {
		vs.Vector(s.Cycle(), buf)
		ev, err := s.Step(buf)
		if err != nil {
			return nil, 0, err
		}
		events += ev
		for _, n := range observe {
			waves[n] = append(waves[n], s.Value(n))
		}
	}
	return waves, events, nil
}

// checkKernelRun holds a parallel run against the sequential simulator:
// three operations — waveform digest, kernel invariants, final GVT.
func checkKernelRun(ck *checker, label string, got [sha256.Size]byte, res *timewarp.Result, want [sha256.Size]byte, cycles uint64) {
	ck.check(got == want, "%s: waveform digest %x, sequential simulator has %x", label, got[:8], want[:8])
	ck.check(len(res.InvariantViolations) == 0, "%s: kernel invariants violated: %v", label, res.InvariantViolations)
	ck.check(res.FinalGVT == cycles, "%s: final GVT %d, want %d", label, res.FinalGVT, cycles)
}

// checkWaves compares the two simulators net by net and cycle by cycle —
// the traced run's wide oracle over every flip-flop output. One operation.
func checkWaves(ck *checker, label string, nl *netlist.Netlist, nets []netlist.NetID, got, want map[netlist.NetID][]bool) {
	for _, n := range nets {
		g, w := got[n], want[n]
		if len(g) != len(w) {
			ck.check(false, "%s: net %s has %d committed cycles, want %d", label, nl.Nets[n].Name, len(g), len(w))
			return
		}
		for c := range w {
			if g[c] != w[c] {
				ck.check(false, "%s: net %s differs from the sequential simulator at cycle %d", label, nl.Nets[n].Name, c)
				return
			}
		}
	}
	ck.check(true, "")
}

// stateNets returns the primary outputs plus every flip-flop output: the
// design's whole registered state.
func stateNets(nl *netlist.Netlist) []netlist.NetID {
	nets := append([]netlist.NetID(nil), nl.POs...)
	for i := range nl.Gates {
		if g := &nl.Gates[i]; g.Kind.Sequential() && !nl.Nets[g.Output].IsPO {
			nets = append(nets, g.Output)
		}
	}
	return nets
}

// checkPartition holds one partitioner result against the flat
// hypergraph: every gate in [0,k), the cut recounted from the gate
// assignment equal to the reported one, and every load inside the paper's
// balance window (formula 1). Three operations.
func checkPartition(ck *checker, label string, flat *hypergraph.H, k int, b float64, gateParts []int32, reportedCut int) {
	covered := len(gateParts) == len(flat.GateVertex)
	for _, p := range gateParts {
		if p < 0 || int(p) >= k {
			covered = false
		}
	}
	ck.check(covered, "%s: gate assignment does not cover every gate with a part in [0,%d)", label, k)
	if !covered {
		// Neither the cut nor the loads of a broken assignment mean
		// anything; count both operations as failed.
		ck.check(false, "%s: cut not recounted (bad assignment)", label)
		ck.check(false, "%s: balance not checked (bad assignment)", label)
		return
	}
	a := hypergraph.NewAssignment(flat, k)
	loads := make([]int, k)
	for vi := range flat.Vertices {
		p := gateParts[flat.Vertices[vi].Gate]
		a.Parts[vi] = p
		loads[p] += flat.Vertices[vi].Weight
	}
	cut := hypergraph.CutSize(flat, a)
	ck.check(cut == reportedCut, "%s: reported cut %d, recounted %d", label, reportedCut, cut)
	window := partition.NewConstraint(flat, k, b)
	lo, hi := window.Bounds()
	ck.check(window.Satisfied(loads),
		"%s: loads %v outside the balance window [%d,%d]", label, loads, lo, hi)
}

// imbalance is the heaviest load over the mean load.
func imbalance(loads []int) float64 {
	max, sum := 0, 0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}
