package timewarp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// TestProgramEvalMatchesSimEvalGate holds the kernel's evaluator and the
// sequential simulator's together: every gate kind at every arity from 1
// to 9 (not and buf are unary), over all input combinations. A gate of at
// most four inputs is one table, a wider one a chain of them.
func TestProgramEvalMatchesSimEvalGate(t *testing.T) {
	const inputs = 9
	nl := &netlist.Netlist{}
	addNet := func(driver netlist.GateID) netlist.NetID {
		id := netlist.NetID(len(nl.Nets))
		nl.Nets = append(nl.Nets, netlist.Net{ID: id, Name: fmt.Sprintf("n%d", id), Driver: driver, Const: -1})
		return id
	}
	for i := 0; i < inputs; i++ {
		pi := addNet(netlist.NoGate)
		nl.Nets[pi].IsPI = true
		nl.PIs = append(nl.PIs, pi)
	}
	links := 0 // the records a chain adds past its gate's own
	for kind := verilog.GateAnd; kind < verilog.GateDff; kind++ {
		maxArity := inputs
		if kind == verilog.GateNot || kind == verilog.GateBuf {
			maxArity = 1
		}
		for arity := 1; arity <= maxArity; arity++ {
			gi := netlist.GateID(len(nl.Gates))
			g := netlist.Gate{ID: gi, Kind: kind, Path: fmt.Sprintf("%v%d", kind, arity), Output: addNet(gi)}
			for in := netlist.NetID(0); in < netlist.NetID(arity); in++ {
				g.Inputs = append(g.Inputs, in)
				nl.Nets[in].Sinks = append(nl.Nets[in].Sinks, gi)
			}
			nl.Gates = append(nl.Gates, g)
			if arity > 4 {
				links += (arity - 2) / 3
			}
		}
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}

	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, len(nl.Gates))
	outs := make([]netlist.NetID, len(nl.Gates))
	for gi := range nl.Gates {
		outs[gi] = nl.Gates[gi].Output
	}
	_, m := compile(sw, parts, 0, outs)
	// One cluster owns every gate, all of them in its table, and every
	// output is observed, so none is folded or dropped: a record's output is
	// its gate's, or a link of its gate's chain.
	code := m.Program
	code.Tab = m.Records()
	if len(code.Tab) != len(nl.Gates)+links {
		t.Fatalf("program has %d records, netlist %d gates and %d chain links", len(code.Tab), len(nl.Gates), links)
	}
	slot := slotMap(&code)
	slots := make([]bool, len(code.Nets))
	values := make([]bool, len(nl.Nets))
	for combo := 0; combo < 1<<inputs; combo++ {
		for i := 0; i < inputs; i++ {
			values[i] = combo>>i&1 == 1
			slots[slot[netlist.NetID(i)]] = values[i]
		}
		sim.Settle(&code, slots)
		for gi := range nl.Gates {
			g := &nl.Gates[gi]
			if got, want := slots[slot[g.Output]], sim.EvalGate(g, values); got != want {
				t.Fatalf("%s inputs %09b: program %v, sim.EvalGate %v", g.Path, combo, got, want)
			}
		}
	}
}

// TestOneClusterIsLevelized holds the K=1 program to the sequential
// baseline, sim.Levelized, on the ledger's SoC and decoder: the one
// cluster's table has as many records as the machine Levelized runs with
// the output ports observed (Tables), and a 200-cycle K=1 Run commits
// Levelized's waves on sim.StateNets.
func TestOneClusterIsLevelized(t *testing.T) {
	for _, c := range []*gen.Circuit{gen.ViterbiSoC(gen.DefaultSoC), gen.Viterbi(gen.DefaultViterbi)} {
		ed, err := c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		one := make([]int32, len(nl.Gates))
		_, records, err := Tables(nl, one, 1)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := sim.NewSweep(nl)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := sim.NewMachine(sw, nil, nl.POs); records[0] != len(m.Records()) {
			t.Errorf("%s: the one cluster settles %d records, Levelized's machine %d", c.Name, records[0], len(m.Records()))
		}
		const cycles = 200
		state, src := sim.StateNets(nl), sim.RandomVectors{Seed: 1}
		want, err := sim.Levelized(nl, src, cycles, state)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{NL: nl, GateParts: one, K: 1, Vectors: src, Cycles: cycles, Observe: state})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range state {
			if !slices.Equal(res.Observed[n], want[n]) {
				t.Fatalf("%s: net %s: K=1 run %v, Levelized %v", c.Name, nl.Nets[n].Name, res.Observed[n], want[n])
			}
		}
	}
}

// BenchmarkCompile times compileAll — every cluster's program and machine
// and their links — on the ledger's SoC split k=4 (soc_dist_split) and
// decoder split k=2 (viterbi_tw_rollback), partition.Multiway at b=10,
// seed 1, with the output ports observed. The sweep is built once, outside
// the loop, as a run builds it once in prepare.
func BenchmarkCompile(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *gen.Circuit
		k    int
	}{
		{"soc_k4", gen.ViterbiSoC(gen.DefaultSoC), 4},
		{"viterbi_k2", gen.Viterbi(gen.DefaultViterbi), 2},
	} {
		ed, err := tc.c.Elaborate()
		if err != nil {
			b.Fatal(err)
		}
		nl := ed.Netlist
		res, err := partition.Multiway(ed, partition.Options{K: tc.k, B: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sw, err := sim.NewSweep(nl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				compiledSink, _ = compileAll(sw, res.GateParts, tc.k, nl.POs)
			}
		})
	}
}

// compiledSink keeps BenchmarkCompile's result alive.
var compiledSink []*program

// slotMap returns the slot of every net code's slots hold.
func slotMap(code *sim.Program) map[netlist.NetID]int32 {
	m := map[netlist.NetID]int32{}
	for s, n := range code.Nets {
		if n != sim.NoNet {
			m[n] = int32(s)
		}
	}
	return m
}

// TestProgramTablesMatchNetlist recomputes, naively from the netlist and
// the partition, what each table of every cluster's program must hold: on
// the differential circuits at k = 2, 4, and on the default decoder at
// k = 3, 4 (seed 1, one restart), whose partitions hold flip-flops that
// only gates the fold dropped read, so a link that carried them would
// carry bits nothing reads.
func TestProgramTablesMatchNetlist(t *testing.T) {
	type split struct {
		name string
		c    *gen.Circuit
		ks   []int
		opts partition.Options
	}
	var splits []split
	for _, tc := range distWorkloads() {
		splits = append(splits, split{tc.name, tc.c, []int{2, 4}, partition.Options{B: 10, Seed: 17, Restarts: 2}})
	}
	splits = append(splits, split{"decoder", gen.Viterbi(gen.DefaultViterbi), []int{3, 4}, partition.Options{B: 10, Seed: 1}})
	for _, tc := range splits {
		ed, err := tc.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		for _, k := range tc.ks {
			opts := tc.opts
			opts.K = k
			res, err := partition.Multiway(ed, opts)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			checkPrograms(t, fmt.Sprintf("%s k=%d", tc.name, k), nl, res.GateParts, k)
		}
	}
}

// checkPrograms compiles every cluster of a k-way partition and checks each
// program against the naive recomputation, and the clusters' programs
// against one another: a cluster's senders are exactly the clusters that
// list it among their receivers.
func checkPrograms(t *testing.T, label string, nl *netlist.Netlist, parts []int32, k int) {
	t.Helper()
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	evaluated := naiveCopies(nl, parts, k)
	progs, machs := compileAll(sw, parts, k, nl.POs)
	reads := make([][]bool, k)
	for id := range reads {
		reads[id] = remoteReads(nl, parts, int32(id), &machs[id])
	}
	for id, p := range progs {
		checkProgram(t, fmt.Sprintf("%s cluster %d", label, id), nl, parts, evaluated, reads, int32(id), p, &machs[id])
	}
	for id, p := range progs {
		var heard []int32
		for src, q := range progs {
			if slices.Contains(q.receivers, int32(id)) {
				heard = append(heard, int32(src))
			}
		}
		if !slices.Equal(p.senders, heard) {
			t.Errorf("%s cluster %d: senders %v, but listed as a reader by clusters %v", label, id, p.senders, heard)
		}
	}
}

// remoteReads returns, by net, the other clusters' flip-flop outputs that
// cluster id's records or its latch read: what its links must carry.
func remoteReads(nl *netlist.Netlist, parts []int32, id int32, m *sim.Machine) []bool {
	read := make([]bool, len(nl.Nets))
	for _, r := range m.Records() {
		for _, s := range r.In {
			if n := m.Nets[s]; n != sim.NoNet {
				read[n] = true
			}
		}
	}
	for gi := range nl.Gates {
		if parts[gi] == id && nl.Gates[gi].Kind.Sequential() {
			read[nl.Gates[gi].Inputs[0]] = true
		}
	}
	for n := range read {
		d := nl.Nets[n].Driver
		read[n] = read[n] && d != netlist.NoGate && parts[d] != id && nl.Gates[d].Kind.Sequential()
	}
	return read
}

// naiveCopies returns, for every cluster, which gates it evaluates: its own,
// and by a fixpoint over the whole netlist the copies — every combinational
// gate of another cluster driving a net an evaluated gate reads.
func naiveCopies(nl *netlist.Netlist, parts []int32, k int) [][]bool {
	evaluated := make([][]bool, k)
	for c := range evaluated {
		ev := make([]bool, len(nl.Gates))
		for gi := range ev {
			ev[gi] = parts[gi] == int32(c)
		}
		for grew := true; grew; {
			grew = false
			for gi := range nl.Gates {
				if !ev[gi] {
					continue
				}
				for _, in := range nl.Gates[gi].Inputs {
					if d := nl.Nets[in].Driver; d != netlist.NoGate && !ev[d] && !nl.Gates[d].Kind.Sequential() {
						ev[d], grew = true, true
					}
				}
			}
		}
		evaluated[c] = ev
	}
	return evaluated
}

func checkProgram(t *testing.T, label string, nl *netlist.Netlist, parts []int32, evaluated, reads [][]bool, id int32, p *program, m *sim.Machine) {
	t.Helper()
	ev := evaluated[id]
	copied := func(g netlist.GateID) bool { return ev[g] && parts[g] != id }
	// readers[n]: the other clusters whose records or latch read net n.
	readers := func(n netlist.NetID) map[int32]bool {
		r := map[int32]bool{}
		for c := range reads {
			if reads[c][n] {
				r[int32(c)] = true
			}
		}
		return r
	}
	var dffs []netlist.GateID
	for gi := range nl.Gates {
		if parts[gi] == id && nl.Gates[gi].Kind.Sequential() {
			dffs = append(dffs, netlist.GateID(gi))
		}
	}
	checkSweepTable(t, label, nl, ev, id, p, m)
	nets, slot := m.Nets, slotMap(&m.Program)
	if p.gates != countTrue(ev) {
		t.Fatalf("%s: program counts %d gates a cycle, the cluster evaluates %d", label, p.gates, countTrue(ev))
	}
	// Only an own flip-flop's output is sent, to every other cluster whose
	// records or latch read it; a copy's output never is.
	gotDsts := make([][]int32, len(dffs))
	for j, r := range p.receivers {
		if j > 0 && r <= p.receivers[j-1] {
			t.Fatalf("%s: receivers %v not ascending", label, p.receivers)
		}
		for _, i := range p.link(j) {
			gotDsts[i] = append(gotDsts[i], r)
		}
	}
	for i, gi := range dffs {
		g := &nl.Gates[gi]
		if _, ok := slot[g.Inputs[0]]; !ok || nets[i] != g.Output {
			t.Fatalf("%s: flip-flop %d's d has a slot: %v, its q slot %d holds %d; netlist gate %s: d %d, q %d",
				label, i, ok, i, nets[i], g.Path, g.Inputs[0], g.Output)
		}
		wantDsts := readers(g.Output)
		if len(gotDsts[i]) != len(wantDsts) {
			t.Fatalf("%s: net %s shipped to clusters %v, want %v", label, nl.Nets[g.Output].Name, gotDsts[i], wantDsts)
		}
		for _, d := range gotDsts[i] {
			if !wantDsts[d] {
				t.Fatalf("%s: net %s shipped to clusters %v, want %v", label, nl.Nets[g.Output].Name, gotDsts[i], wantDsts)
			}
		}
	}
	if len(p.obsSlot) != len(p.obsOwn) {
		t.Fatalf("%s: %d observed nets, %d slots", label, len(p.obsOwn), len(p.obsSlot))
	}
	for i, n := range p.obsOwn {
		if d := nl.Nets[n].Driver; d != netlist.NoGate && copied(d) {
			t.Fatalf("%s: observes %s, the output of a copy", label, nl.Nets[n].Name)
		}
		if nets[p.obsSlot[i]] != n {
			t.Fatalf("%s: observes %s in the slot of %d", label, nl.Nets[n].Name, nets[p.obsSlot[i]])
		}
	}

	// A frame from a sender writes the slots of that sender's flip-flop
	// outputs the records or the latch read, in the sender's flip-flop
	// order (gate order), and nothing else: every other cluster's
	// flip-flop output they read, by sender.
	remote := make([][]netlist.NetID, len(p.senders))
	for gi := range nl.Gates {
		n := nl.Gates[gi].Output
		if !reads[id][n] {
			continue
		}
		j := slices.Index(p.senders, parts[gi])
		if j < 0 {
			t.Fatalf("%s: reads %s, but its owner %d is not among the senders %v", label, nl.Nets[n].Name, parts[gi], p.senders)
		}
		remote[j] = append(remote[j], n)
	}
	for j, want := range remote {
		got := make([]netlist.NetID, 0, len(want))
		for _, s := range p.inputs(j) {
			got = append(got, nets[s])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: receives %v from cluster %d, reads its flip-flop outputs %v", label, got, p.senders[j], want)
		}
	}

	for _, pi := range nl.PIs {
		if _, ok := slot[pi]; !ok && !nl.IsClockNet(pi) {
			t.Fatalf("%s: stimulus input %s has no slot", label, nl.Nets[pi].Name)
		}
	}
}

// checkSweepTable checks a cluster's fused table against the naive
// recomputation. Its slots are the table's inputs, nets no record writes,
// each once; then record i's output, slot Base+i, a net an evaluated
// combinational gate drives, each once, or a link of a gate of more than
// four inputs; then nets the cycle reads outside the table. Record i reads
// only slots below Base+i. Every combinational gate the cluster evaluates,
// own or a copy, whose output a live or named net depends on lies in some
// record's cone — the gates a walk back from its output meets before its
// inputs, a chain's links covering their gate together — and no other gate
// does: a gate nothing live depends on is dropped, and a gate whose output
// several records read may lie in several cones. Every net the live rule
// or the program names that such a gate drives is a record's output, every
// other net a record reads a leaf (a stimulus input, a constant or a
// flip-flop output). On random leaf values the program settles every
// record's net, read through its slot, to what the gates, evaluated one by
// one in topological order, give it.
func checkSweepTable(t *testing.T, label string, nl *netlist.Netlist, ev []bool, id int32, p *program, m *sim.Machine) {
	t.Helper()
	comb := func(g netlist.GateID) bool { return g != netlist.NoGate && !nl.Gates[g].Kind.Sequential() }
	code := &sim.Program{Tab: m.Records(), Base: m.Base, Nets: m.Nets}
	base, end := int(code.Base), int(code.Base)+len(code.Tab)
	seen := make([]bool, len(nl.Nets))
	for s, n := range code.Nets {
		if n == sim.NoNet {
			if s < base || s >= end {
				t.Fatalf("%s: slot %d holds no net, outside the records' %d..%d", label, s, base, end)
			}
			continue
		}
		if seen[n] {
			t.Fatalf("%s: %s has two slots", label, nl.Nets[n].Name)
		}
		seen[n] = true
		if d := nl.Nets[n].Driver; (s >= base && s < end) != (comb(d) && ev[d]) {
			t.Fatalf("%s: slot %d (records %d..%d) holds %s, driven by an evaluated combinational gate: %v", label, s, base, end, nl.Nets[n].Name, comb(d) && ev[d])
		}
	}
	covered := make([]bool, len(nl.Gates))
	for i, r := range code.Tab {
		for _, s := range r.In {
			if int(s) < 0 || int(s) >= base+i {
				t.Fatalf("%s: record %d (slot %d) reads slot %d", label, i, base+i, s)
			}
		}
		n := code.Nets[base+i]
		if n == sim.NoNet {
			continue // a chain link: its gate is the chain's last record's
		}
		for _, g := range coneOf(t, label, nl, code, i) {
			covered[g] = true
		}
	}

	slot := slotMap(code)
	live := make([]bool, len(nl.Nets))
	for _, idx := range [][]int32{p.obsSlot, p.inSlot} {
		for _, s := range idx {
			if n := code.Nets[s]; n != sim.NoNet {
				live[n] = true
			}
		}
	}
	for n := range nl.Nets {
		for _, s := range nl.Nets[n].Sinks {
			live[n] = live[n] || nl.Gates[s].Kind.Sequential() || !ev[s]
		}
		if s, ok := slot[netlist.NetID(n)]; live[n] && comb(nl.Nets[n].Driver) && ev[nl.Nets[n].Driver] && (!ok || int(s) < base) {
			t.Fatalf("%s: live or named net %s is no record's output", label, nl.Nets[n].Name)
		}
	}

	// needed: the evaluated gates some live net depends on, walking the
	// sweep's topological slice of them backwards.
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	ref := sw.AppendSlice(nil, func(g netlist.GateID) bool { return ev[g] })
	needed, read := make([]bool, len(nl.Gates)), slices.Clone(live)
	for i := len(ref) - 1; i >= 0; i-- {
		if g := nl.Nets[ref[i].Out].Driver; read[ref[i].Out] {
			needed[g] = true
			for _, n := range nl.Gates[g].Inputs {
				read[n] = true
			}
		}
	}
	for gi := range nl.Gates {
		if comb(netlist.GateID(gi)) && ev[gi] && needed[gi] != covered[gi] {
			t.Fatalf("%s: gate %s evaluated by the cluster, a live net depends on it: %v, in a record's cone: %v", label, nl.Gates[gi].Path, needed[gi], covered[gi])
		}
		if comb(netlist.GateID(gi)) && !ev[gi] && covered[gi] {
			t.Fatalf("%s: gate %s not evaluated by the cluster, in a record's cone", label, nl.Gates[gi].Path)
		}
	}

	// The reference: every evaluated gate in the sweep's order, one by one.
	rng := rand.New(rand.NewSource(int64(id)))
	want, got := make([]bool, len(nl.Nets)), make([]bool, len(code.Nets))
	for range 4 {
		for n := range want {
			want[n] = rng.Intn(2) == 1
		}
		code.Load(got, want)
		for i := range ref {
			if r := &ref[i]; r.TT < sim.Wide {
				want[r.Out] = r.Eval(want)
			} else {
				want[r.Out] = sim.EvalGate(&nl.Gates[r.A], want)
			}
		}
		sim.Settle(code, got)
		for s, n := range code.Nets {
			if n != sim.NoNet && got[s] != want[n] {
				t.Fatalf("%s: the fused table settles %s to %v, its gates to %v", label, nl.Nets[n].Name, got[s], want[n])
			}
		}
	}
}

// coneOf returns the gates record i of code evaluates: its output's driver
// and, walking back, every gate driving a net the cone reads that is not
// one of the record's inputs, which must be a combinational gate's. A
// chain link among its inputs stands for the rest of its gate's inputs.
func coneOf(t *testing.T, label string, nl *netlist.Netlist, code *sim.Program, i int) []netlist.GateID {
	t.Helper()
	var in []netlist.NetID // the nets the record reads, through its links
	var reads func(s int32)
	reads = func(s int32) {
		if n := code.Nets[s]; n != sim.NoNet {
			in = append(in, n)
			return
		}
		for _, l := range code.Tab[s-code.Base].In {
			reads(l)
		}
	}
	for _, s := range code.Tab[i].In {
		reads(s)
	}
	out := code.Nets[int(code.Base)+i]
	cone, stack := []netlist.GateID{}, []netlist.GateID{nl.Nets[out].Driver}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if slices.Contains(cone, g) {
			continue
		}
		cone = append(cone, g)
		for _, n := range nl.Gates[g].Inputs {
			if slices.Contains(in, n) {
				continue
			}
			d := nl.Nets[n].Driver
			if d == netlist.NoGate || nl.Gates[d].Kind.Sequential() {
				t.Fatalf("%s: the record of %s reads %s, which is not among its inputs", label, nl.Nets[out].Name, nl.Nets[n].Name)
			}
			stack = append(stack, d)
		}
	}
	return cone
}

func countTrue(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}

// alignedSoC is the small two-channel SoC split k=2 along its channels:
// nothing is cut, so no cluster ever hears from the other.
func alignedSoC(t *testing.T) (*elab.Design, []int32) {
	t.Helper()
	ed := socDesign(t)
	parts, err := partition.Multiway(ed, partition.Options{K: 2, B: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if parts.Cut != 0 {
		t.Fatalf("the two-channel SoC split k=2 has cut %d, want 0", parts.Cut)
	}
	return ed, parts.GateParts
}

// TestCutZeroRunIsPinned: on a partition that cuts nothing neither cluster
// can be sent an event, so each keeps no state and sweeps its cycle — every
// own combinational gate evaluated once, every own flip-flop sampled once.
// Its evaluation count is therefore a closed form, cycles × its own gates
// (120,480 in all on this input), and it sends and waits for nothing.
func TestCutZeroRunIsPinned(t *testing.T) {
	ed, parts := alignedSoC(t)
	const cycles = 60
	res := runBothCfg(t, ed, parts, 2, cycles, 1, func(*Config) {})
	own := make([]uint64, 2)
	for _, p := range parts {
		own[p]++
	}
	for id, st := range res.PerCluster {
		if want := cycles * own[id]; st.Events != want || st.Messages != 0 || st.LinkWaits != 0 {
			t.Errorf("cut-0 run, cluster %d: %d events, %d messages, %d link waits; want %d (%d cycles × %d gates), 0, 0",
				id, st.Events, st.Messages, st.LinkWaits, want, cycles, own[id])
		}
	}
}
