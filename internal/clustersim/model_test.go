package clustersim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
)

func viterbiDesign(t *testing.T) *elab.Design {
	t.Helper()
	c := gen.Viterbi(gen.ViterbiConfig{K: 5, W: 6, TB: 16})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

func modelRun(t *testing.T, ed *elab.Design, k int, b float64, cycles uint64) *Result {
	t.Helper()
	pr, err := partition.Multiway(ed, partition.Options{K: k, B: b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: k,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: cycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestModelDeterministic(t *testing.T) {
	ed := viterbiDesign(t)
	a := modelRun(t, ed, 3, 10, 200)
	b := modelRun(t, ed, 3, 10, 200)
	if a.ParTime != b.ParTime || a.Messages != b.Messages || a.Rollbacks != b.Rollbacks {
		t.Errorf("model not deterministic: %+v vs %+v", a, b)
	}
}

func TestModelSingleMachineIsSequential(t *testing.T) {
	ed := viterbiDesign(t)
	parts := make([]int32, ed.Netlist.NumGates())
	res, err := Run(Config{
		NL: ed.Netlist, GateParts: parts, K: 1,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 0 || res.Rollbacks != 0 {
		t.Errorf("single machine should not communicate: %+v", res)
	}
	if res.ParTime != res.SeqTime {
		t.Errorf("K=1 time %f should equal sequential %f", res.ParTime, res.SeqTime)
	}
	if res.Speedup != 1 {
		t.Errorf("K=1 speedup = %f", res.Speedup)
	}
}

func TestModelEventConservation(t *testing.T) {
	// The modeled event count must equal the sequential simulator's, and
	// per-machine events must sum to it.
	ed := viterbiDesign(t)
	res := modelRun(t, ed, 4, 10, 150)
	s, err := sim.New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(sim.RandomVectors{Seed: 9}, 150); err != nil {
		t.Fatal(err)
	}
	if res.Events != s.Events {
		t.Errorf("model events %d != sequential %d", res.Events, s.Events)
	}
	var sum uint64
	for _, e := range res.MachineEvents {
		sum += e
	}
	if sum != res.Events {
		t.Errorf("machine events sum %d != total %d", sum, res.Events)
	}
}

func TestModelGoodPartitionBeatsRandom(t *testing.T) {
	ed := viterbiDesign(t)
	good := modelRun(t, ed, 4, 10, 200)

	// Random scatter: far more messages, worse (or no better) speedup.
	parts := make([]int32, ed.Netlist.NumGates())
	for i := range parts {
		parts[i] = int32(i % 4)
	}
	bad, err := Run(Config{
		NL: ed.Netlist, GateParts: parts, K: 4,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Messages <= good.Messages {
		t.Errorf("scattered partition should send more messages: %d vs %d",
			bad.Messages, good.Messages)
	}
	if bad.Speedup > good.Speedup {
		t.Errorf("scattered partition should not be faster: %.3f vs %.3f",
			bad.Speedup, good.Speedup)
	}
	t.Logf("good: speedup=%.2f msgs=%d rb=%d; scattered: speedup=%.2f msgs=%d rb=%d",
		good.Speedup, good.Messages, good.Rollbacks, bad.Speedup, bad.Messages, bad.Rollbacks)
}

func TestModelSpeedupInPlausibleRange(t *testing.T) {
	ed := viterbiDesign(t)
	for _, k := range []int{2, 3, 4} {
		res := modelRun(t, ed, k, 10, 300)
		if res.Speedup <= 0 || res.Speedup > float64(k) {
			t.Errorf("k=%d: speedup %.3f outside (0, %d]", k, res.Speedup, k)
		}
		t.Logf("k=%d: speedup=%.2f msgs=%d rollbacks=%d reexec=%d busy=%v",
			k, res.Speedup, res.Messages, res.Rollbacks, res.ReexecEvents, res.MachineBusy)
	}
}

func TestModelValidation(t *testing.T) {
	ed := viterbiDesign(t)
	if _, err := Run(Config{NL: ed.Netlist, GateParts: nil, K: 2,
		Vectors: sim.RandomVectors{}, Cycles: 1}); err == nil {
		t.Error("nil GateParts should error")
	}
	if _, err := Run(Config{NL: ed.Netlist, GateParts: make([]int32, ed.Netlist.NumGates()), K: 0,
		Vectors: sim.RandomVectors{}, Cycles: 1}); err == nil {
		t.Error("K=0 should error")
	}
}

// TestModelRejectsPartOutOfRange: a gate assigned outside [0, K) is an
// error from every generator, as it is from timewarp.Run — not an index
// out of range in a per-machine counter.
func TestModelRejectsPartOutOfRange(t *testing.T) {
	ed, err := gen.Multiplier(4).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name   string
		packed PackedMode
		sync   bool
	}{{"PackedOn", PackedOn, false}, {"PackedOff", PackedOff, false}, {"Synchronous", PackedOn, true}}
	for _, bad := range []int32{2, -1} {
		parts := make([]int32, ed.Netlist.NumGates())
		parts[3] = bad
		for _, m := range modes {
			_, err := Run(Config{NL: ed.Netlist, GateParts: parts, K: 2,
				Vectors: sim.RandomVectors{Seed: 1}, Cycles: 8, Packed: m.packed, Synchronous: m.sync})
			want := fmt.Sprintf("gate 3 assigned to cluster %d", bad)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, part %d: error %v, want %q", m.name, bad, err, want)
			}
		}
	}
}

func TestSynchronousMode(t *testing.T) {
	ed := viterbiDesign(t)
	pr, err := partition.Multiway(ed, partition.Options{K: 3, B: 10})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 3,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 200, Synchronous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 3,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Rollbacks != 0 || syn.ReexecEvents != 0 {
		t.Errorf("synchronous mode should have no rollbacks: %+v", syn)
	}
	if syn.Events != opt.Events {
		t.Errorf("event counts differ: %d vs %d", syn.Events, opt.Events)
	}
	if syn.Messages != opt.Messages {
		t.Errorf("message counts differ: %d vs %d", syn.Messages, opt.Messages)
	}
	t.Logf("k=3: synchronous speedup %.2f, optimistic speedup %.2f", syn.Speedup, opt.Speedup)
	if syn.Speedup <= 0 || syn.Speedup > 3 {
		t.Errorf("synchronous speedup out of range: %f", syn.Speedup)
	}
}

func TestSynchronousSingleMachine(t *testing.T) {
	ed := viterbiDesign(t)
	parts := make([]int32, ed.Netlist.NumGates())
	res, err := Run(Config{
		NL: ed.Netlist, GateParts: parts, K: 1,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 100, Synchronous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup != 1 {
		t.Errorf("K=1 synchronous speedup = %f, want 1", res.Speedup)
	}
}

// TestHopAccounting: a partition cutting a registered boundary carries no
// mid-cycle hops, while one cutting combinational guts does — the basis of
// the model's latency charging (DESIGN.md §7).
func TestHopAccounting(t *testing.T) {
	ed := viterbiDesign(t)
	nl := ed.Netlist
	// Registered boundary: the design-driven partition at a permissive b.
	pr, err := partition.Multiway(ed, partition.Options{K: 2, B: 10})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(Config{
		NL: nl, GateParts: pr.GateParts, K: 2,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 100,
		Costs: Costs{EvalCost: 1, MsgCPU: 1, MsgLatency: 10000, RollbackCost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Glitchy boundary: scatter gates randomly.
	parts := make([]int32, nl.NumGates())
	for i := range parts {
		parts[i] = int32(i % 2)
	}
	dirty, err := Run(Config{
		NL: nl, GateParts: parts, K: 2,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 100,
		Costs: Costs{EvalCost: 1, MsgCPU: 1, MsgLatency: 10000, RollbackCost: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a huge latency, hop chains dominate ParTime: the scattered
	// partition must be drastically slower per cycle.
	if dirty.ParTime < clean.ParTime*3 {
		t.Errorf("hop accounting too weak: clean %.0f vs scattered %.0f",
			clean.ParTime, dirty.ParTime)
	}
}

func TestCostsFillDefaults(t *testing.T) {
	var c Costs
	c.fill()
	if c != DefaultCosts {
		t.Errorf("zero Costs should fill to defaults: %+v", c)
	}
	custom := Costs{EvalCost: 2, MsgCPU: 3, MsgLatency: 4, RollbackCost: 5}
	filled := custom
	filled.fill()
	if filled != custom {
		t.Errorf("non-zero Costs must not be overridden: %+v", filled)
	}
}

// TestCriticalPathBounds pins the cost-model critical path between its
// two defining bounds, checks the K=1 degenerate case, and confirms the
// optimistic and synchronous modes agree on it (it is a property of the
// trace and the partition, not of the execution policy).
func TestCriticalPathBounds(t *testing.T) {
	ed := viterbiDesign(t)
	pr, err := partition.Multiway(ed, partition.Options{K: 3, B: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		NL: ed.Netlist, GateParts: pr.GateParts, K: 3,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 150,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath <= 0 || res.CritPath > res.SeqTime {
		t.Fatalf("CritPath = %f, want in (0, %f]", res.CritPath, res.SeqTime)
	}
	busiest := 0.0
	for _, ev := range res.MachineEvents {
		if c := float64(ev) * DefaultCosts.EvalCost; c > busiest {
			busiest = c
		}
	}
	if res.CritPath < busiest {
		t.Errorf("CritPath %f below busiest machine's serial work %f", res.CritPath, busiest)
	}
	if res.BoundSpeedup < 1 || res.BoundSpeedup > float64(cfg.K) {
		t.Errorf("BoundSpeedup = %f, want within [1, K]", res.BoundSpeedup)
	}
	if res.Speedup > res.BoundSpeedup+1e-9 {
		t.Errorf("modeled speedup %f beats its own causal bound %f", res.Speedup, res.BoundSpeedup)
	}

	syncCfg := cfg
	syncCfg.Synchronous = true
	syncRes, err := Run(syncCfg)
	if err != nil {
		t.Fatal(err)
	}
	if syncRes.CritPath != res.CritPath {
		t.Errorf("synchronous CritPath %f != optimistic %f", syncRes.CritPath, res.CritPath)
	}
}

func TestCriticalPathSingleMachineIsSequential(t *testing.T) {
	ed := viterbiDesign(t)
	parts := make([]int32, ed.Netlist.NumGates())
	res, err := Run(Config{
		NL: ed.Netlist, GateParts: parts, K: 1,
		Vectors: sim.RandomVectors{Seed: 9}, Cycles: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath != res.SeqTime {
		t.Errorf("K=1 CritPath %f != SeqTime %f", res.CritPath, res.SeqTime)
	}
	if res.BoundSpeedup != 1 {
		t.Errorf("K=1 BoundSpeedup = %f", res.BoundSpeedup)
	}
}
