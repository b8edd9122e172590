package experiments

import (
	"repro/internal/clustersim"
	"repro/internal/sim"
)

// profileActivity runs a short sequential simulation and returns per-gate
// evaluation counts scaled into small integer weights (min 1), the input
// to the activity-weighted load metric.
func profileActivity(c *Context, cycles uint64) ([]int, error) {
	s, err := sim.New(c.ED.Netlist)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(sim.RandomVectors{Seed: c.Seed}, cycles); err != nil {
		return nil, err
	}
	// Scale so the busiest gate weighs ~16: coarse enough to keep vertex
	// weights small, fine enough to distinguish hot logic from idle.
	var max uint64 = 1
	for _, n := range s.EvalCount {
		if n > max {
			max = n
		}
	}
	w := make([]int, len(s.EvalCount))
	for i, n := range s.EvalCount {
		w[i] = int(n*15/max) + 1
	}
	return w, nil
}

// model runs the cluster model over an explicit gate partition. Runs of
// PresimCycles (the grid's points and the studies beside them) fold the
// traces of the one wave bank the context records for that stream; other
// lengths (FullRuns) run once each and keep a private bank of one wave at a
// time instead of pinning 100k+ cycles of traces.
func (c *Context) model(gateParts []int32, k int, cycles uint64, synchronous bool) (*clustersim.Result, error) {
	scfg := clustersim.Config{
		NL: c.ED.Netlist, GateParts: gateParts, K: k,
		Vectors: sim.RandomVectors{Seed: c.Seed}, Cycles: cycles, Costs: c.Costs,
		Synchronous: synchronous,
	}
	if cycles == c.PresimCycles {
		bank, err := c.presimWaveBank()
		if err != nil {
			return nil, err
		}
		scfg.Waves = bank
	}
	return clustersim.Run(scfg)
}
