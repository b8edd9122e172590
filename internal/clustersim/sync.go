package clustersim

// runSynchronous models the conservative barrier-synchronized execution:
// every machine processes its share of cycle c, exchanges messages, and
// waits at a barrier before cycle c+1. Wall time per cycle is therefore
// the maximum machine cost plus one barrier latency; mid-cycle hop chains
// stall exactly as in the optimistic model (a combinational value must
// cross before dependent logic can proceed), but no work is ever wasted.
func runSynchronous(cfg *Config, gen traceSource) (*Result, error) {
	res := &Result{
		MachineBusy:   make([]float64, cfg.K),
		MachineEvents: make([]uint64, cfg.K),
	}
	var wall float64
	for cyc := uint64(0); cyc < cfg.Cycles; cyc++ {
		tr, err := gen.cycle(cyc)
		if err != nil {
			return nil, err
		}
		slowest := 0.0
		for m := int32(0); m < int32(cfg.K); m++ {
			t := tr[m]
			res.Events += t.evals
			res.MachineEvents[m] += t.evals
			dur := float64(t.evals) * cfg.Costs.EvalCost
			nOut := uint64(0)
			for _, n := range t.outBundles {
				nOut += n
				res.Messages += n
			}
			dur += float64(nOut) * cfg.Costs.MsgCPU * 2 // send + receive sides
			dur += float64(t.recvHops) * cfg.Costs.MsgLatency
			res.MachineBusy[m] += dur
			if dur > slowest {
				slowest = dur
			}
		}
		// Barrier: one latency to agree the cycle is complete (only when
		// there is more than one machine).
		wall += slowest
		if cfg.K > 1 {
			wall += cfg.Costs.MsgLatency
		}
		gen.discardBelow(cyc)
	}
	res.ParTime = wall
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
