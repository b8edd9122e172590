// Viterbi end-to-end: generate a hierarchical Viterbi decoder, partition
// it with the design-driven algorithm, run the Time Warp kernel
// over the partitions, and verify the committed waveforms bit-for-bit
// against the sequential simulator — the paper's whole system in one run.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clustersim"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/timewarp"
)

func main() {
	// A mid-sized decoder so the whole example runs in seconds.
	circuit := gen.Viterbi(gen.ViterbiConfig{K: 5, W: 6, TB: 16})
	ed, err := circuit.Elaborate()
	if err != nil {
		log.Fatal(err)
	}
	nl := ed.Netlist
	st := nl.Stats()
	fmt.Printf("generated %s: %d gates (%d DFFs), %d module instances\n",
		circuit.Name, st.Gates, st.DFFs, len(ed.Instances)-1)

	const cycles = 500
	const k = 3
	vectors := sim.RandomVectors{Seed: 2026}

	// Partition with the paper's algorithm.
	pres, err := partition.Multiway(ed, partition.Options{K: k, B: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design-driven partition: k=%d cut=%d loads=%v\n", k, pres.Cut, pres.Loads)

	// Sequential reference run.
	seq, err := sim.New(nl)
	if err != nil {
		log.Fatal(err)
	}
	want := make([][]bool, cycles)
	buf := make([]bool, seq.VectorWidth())
	t0 := time.Now()
	for c := uint64(0); c < cycles; c++ {
		vectors.Vector(c, buf)
		if _, err := seq.Step(buf); err != nil {
			log.Fatal(err)
		}
		row := make([]bool, len(nl.POs))
		for i, po := range nl.POs {
			row[i] = seq.Value(po)
		}
		want[c] = row
	}
	fmt.Printf("sequential: %d events in %v\n", seq.Events, time.Since(t0).Round(time.Millisecond))

	// Parallel run over the same stimulus.
	t0 = time.Now()
	res, err := timewarp.Run(timewarp.Config{
		NL: nl, GateParts: pres.GateParts, K: k, Vectors: vectors, Cycles: cycles,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("time warp:  %d events, %d messages in %v\n",
		res.Stats.Events, res.Stats.Messages, time.Since(t0).Round(time.Millisecond))

	// Verify every primary output on every cycle.
	for c := 0; c < cycles; c++ {
		for i, po := range nl.POs {
			if res.Observed[po][c] != want[c][i] {
				log.Fatalf("MISMATCH: %s at cycle %d", nl.Nets[po].Name, c)
			}
		}
	}
	fmt.Println("waveforms: parallel run matches sequential bit-for-bit ✓")

	// Modeled cluster speedup (the deterministic testbed model).
	m, err := clustersim.Run(clustersim.Config{
		NL: nl, GateParts: pres.GateParts, K: k, Vectors: vectors, Cycles: cycles,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeled cluster: speedup %.2f on %d machines (%d msgs, %d rollbacks)\n",
		m.Speedup, k, m.Messages, m.Rollbacks)
}
