package timewarp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/verilog"
)

// TestProgramEvalMatchesSimEvalGate holds the kernel's evaluator and the
// sequential simulator's together: every gate kind at every arity from 1
// to 4 (not and buf are unary), over all input combinations, and each gate
// on the path its arity calls for.
func TestProgramEvalMatchesSimEvalGate(t *testing.T) {
	const inputs = 4
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
	p := compile(sw, parts, replicate(nl, parts, 1), 0, nil)
	if len(p.tab) != len(nl.Gates) {
		t.Fatalf("program has %d combinational gates, netlist %d", len(p.tab), len(nl.Gates))
	}
	// One cluster owns every gate, all of them in its table, and no output
	// is read, so none is folded: a record's gate drives its output. A
	// gate of one or two inputs must be tabulated, and its table must be
	// sim.EvalGate's; a wider one must name itself for sim.Settle to hand
	// to sim.EvalGate. Routing every gate to the wide path would evaluate
	// right, and slowly.
	values := make([]bool, len(nl.Nets))
	for i := range p.tab {
		r := &p.tab[i]
		gi := nl.Nets[r.Out].Driver
		g := &nl.Gates[gi]
		if tabulated := len(g.Inputs) <= 2; tabulated != (r.N > 0) {
			t.Errorf("%s: %d table inputs, want a table: %v", g.Path, r.N, tabulated)
			continue
		}
		if r.N == 0 {
			if r.In[0] != netlist.NetID(gi) {
				t.Errorf("%s: wide record names gate %d", g.Path, r.In[0])
			}
			continue
		}
		for combo := 0; combo < 1<<inputs; combo++ {
			for i := 0; i < inputs; i++ {
				values[i] = combo>>i&1 == 1
			}
			if got, want := r.Eval(values), sim.EvalGate(g, values); got != want {
				t.Errorf("%s inputs %04b: table %v, sim.EvalGate %v", g.Path, combo, got, want)
			}
		}
	}
}

// TestProgramTablesMatchNetlist recomputes, naively from the netlist and
// the partition, what each table of every cluster's program must hold.
func TestProgramTablesMatchNetlist(t *testing.T) {
	for _, tc := range distWorkloads() {
		ed, err := tc.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		for _, k := range []int{2, 4} {
			res, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 17, Restarts: 2})
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
// list it among a net's readers. It returns the programs.
func checkPrograms(t *testing.T, label string, nl *netlist.Netlist, parts []int32, k int) []*program {
	t.Helper()
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	rep := replicate(nl, parts, k)
	evaluated := naiveCopies(nl, parts, k)
	progs := make([]*program, k)
	for id := range progs {
		progs[id] = compile(sw, parts, rep, int32(id), nl.POs)
		checkProgram(t, fmt.Sprintf("%s cluster %d", label, id), nl, parts, evaluated, int32(id), nl.POs, progs[id])
	}
	for id, p := range progs {
		var heard []int32
		for src, q := range progs {
			if slices.Contains(q.dsts, int32(id)) {
				heard = append(heard, int32(src))
			}
		}
		if !slices.Equal(p.senders, heard) {
			t.Errorf("%s cluster %d: senders %v, but listed as a reader by clusters %v", label, id, p.senders, heard)
		}
	}
	return progs
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

func checkProgram(t *testing.T, label string, nl *netlist.Netlist, parts []int32, evaluated [][]bool, id int32, observe []netlist.NetID, p *program) {
	t.Helper()
	ev := evaluated[id]
	copied := func(g netlist.GateID) bool { return ev[g] && parts[g] != id }
	// readers[n]: the other clusters that evaluate a gate reading net n.
	readers := func(n netlist.NetID) map[int32]bool {
		r := map[int32]bool{}
		for _, s := range nl.Nets[n].Sinks {
			for c := range evaluated {
				if int32(c) != id && evaluated[c][s] {
					r[int32(c)] = true
				}
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
	checkSweepTable(t, label, nl, ev, id, observe, p)
	if len(p.latch) != len(dffs) {
		t.Fatalf("%s: %d flip-flops, want %d", label, len(p.latch), len(dffs))
	}
	for i, gi := range dffs {
		g := &nl.Gates[gi]
		if want := (latchGate{d: g.Inputs[0], q: g.Output, remote: len(readers(g.Output)) > 0}); p.latch[i] != want {
			t.Fatalf("%s: flip-flop %d is %+v, netlist gate %s wants %+v", label, i, p.latch[i], g.Path, want)
		}
	}

	// Only an own flip-flop's output is sent, to every other cluster that
	// reads it with an own gate or a copy; a copy's output never is.
	for n := range nl.Nets {
		net := &nl.Nets[n]
		wantDsts := map[int32]bool{}
		if d := net.Driver; d != netlist.NoGate && parts[d] == id && nl.Gates[d].Kind.Sequential() {
			wantDsts = readers(netlist.NetID(n))
		}
		gotDsts := p.readers(netlist.NetID(n))
		if len(gotDsts) != len(wantDsts) {
			t.Fatalf("%s: net %s read by clusters %v, want %v", label, net.Name, gotDsts, wantDsts)
		}
		for _, d := range gotDsts {
			if !wantDsts[d] {
				t.Fatalf("%s: net %s read by clusters %v, want %v", label, net.Name, gotDsts, wantDsts)
			}
		}
	}
	for _, n := range p.obsOwn {
		if d := nl.Nets[n].Driver; d != netlist.NoGate && copied(d) {
			t.Fatalf("%s: observes %s, the output of a copy", label, nl.Nets[n].Name)
		}
	}

	pos, own := 0, 0
	for _, pi := range nl.PIs {
		if nl.IsClockNet(pi) {
			continue
		}
		read := id == 0
		for _, s := range nl.Nets[pi].Sinks {
			read = read || ev[s]
		}
		if read {
			if own >= len(p.ownPIs) || p.ownPIs[own] != pi || int(p.piPos[own]) != pos {
				t.Fatalf("%s: stimulus input %s (vector position %d) missing or misplaced in %v / %v",
					label, nl.Nets[pi].Name, pos, p.ownPIs, p.piPos)
			}
			own++
		}
		pos++
	}
	if own != len(p.ownPIs) || pos != p.vecWidth {
		t.Fatalf("%s: %d own PIs of width %d, want %d of %d", label, len(p.ownPIs), p.vecWidth, own, pos)
	}
}

// checkSweepTable checks a cluster's fused table against the naive
// recomputation: the records cover every combinational gate the cluster
// evaluates, own or a copy, once each — a record's cone, the gates a walk
// back from its output meets before its inputs — with no input a record
// writes later; a wide gate is a record of its own; every net the live rule
// names that such a gate drives is a record's output, and every other net
// a record reads is a leaf (a stimulus input, a constant or a flip-flop
// output); and on random leaf values the fused table settles every record
// output to what the gates, evaluated one by one in topological order,
// give it.
func checkSweepTable(t *testing.T, label string, nl *netlist.Netlist, ev []bool, id int32, observe []netlist.NetID, p *program) {
	t.Helper()
	comb := func(g netlist.GateID) bool { return g != netlist.NoGate && !nl.Gates[g].Kind.Sequential() }
	written := make([]bool, len(nl.Nets)) // outputs of records seen so far
	covered := make([]bool, len(nl.Gates))
	for i, r := range p.tab {
		gi := nl.Nets[r.Out].Driver
		if !comb(gi) || !ev[gi] {
			t.Fatalf("%s: record %d drives %s, which neither an own combinational gate nor a copy drives", label, i, nl.Nets[r.Out].Name)
		}
		if written[r.Out] {
			t.Fatalf("%s: %s written by two records", label, nl.Nets[r.Out].Name)
		}
		if r.N == 0 != (len(nl.Gates[gi].Inputs) > 2) || r.N == 0 && r.In[0] != netlist.NetID(gi) {
			t.Fatalf("%s: record %d (%s) is %+v; a gate of %d inputs", label, i, nl.Gates[gi].Path, r, len(nl.Gates[gi].Inputs))
		}
		ins := r.In[:r.N]
		if r.N == 0 {
			ins = nl.Gates[gi].Inputs
		}
		for _, in := range ins {
			if d := nl.Nets[in].Driver; comb(d) && !written[in] {
				t.Fatalf("%s: record %d (%s) reads %s before the record writing it", label, i, nl.Gates[gi].Path, nl.Nets[in].Name)
			}
		}
		for _, g := range coneOf(t, label, nl, r) {
			if covered[g] {
				t.Fatalf("%s: gate %s in two records' cones", label, nl.Gates[g].Path)
			}
			covered[g] = true
		}
		written[r.Out] = true
	}
	for gi := range nl.Gates {
		if comb(netlist.GateID(gi)) && ev[gi] != covered[gi] {
			t.Fatalf("%s: gate %s evaluated by the cluster: %v, in a record's cone: %v", label, nl.Gates[gi].Path, ev[gi], covered[gi])
		}
	}
	if p.gates != countTrue(covered) {
		t.Fatalf("%s: program counts %d gates, its records cover %d", label, p.gates, countTrue(covered))
	}

	live := make([]bool, len(nl.Nets))
	for _, n := range observe {
		live[n] = true
	}
	for n := range nl.Nets {
		readers := map[netlist.GateID]bool{}
		for _, s := range nl.Nets[n].Sinks {
			g := &nl.Gates[s]
			live[n] = live[n] || g.Kind.Sequential() || len(g.Inputs) > 2 || !ev[s]
			readers[s] = true
		}
		live[n] = live[n] || len(readers) > 1
		if d := nl.Nets[n].Driver; live[n] && comb(d) && ev[d] && !written[n] {
			t.Fatalf("%s: live net %s is no record's output", label, nl.Nets[n].Name)
		}
	}

	// The reference: every evaluated gate in the sweep's order, one by one.
	sw, err := sim.NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	ref := sw.AppendSlice(nil, func(g netlist.GateID) bool { return ev[g] })
	rng := rand.New(rand.NewSource(int64(id)))
	want, got := make([]bool, len(nl.Nets)), make([]bool, len(nl.Nets))
	for range 4 {
		for n := range want {
			want[n] = rng.Intn(2) == 1
		}
		copy(got, want)
		for i := range ref {
			if r := &ref[i]; r.TT < sim.Wide {
				want[r.Out] = r.Eval(want)
			} else {
				want[r.Out] = sim.EvalGate(&nl.Gates[r.A], want)
			}
		}
		sim.Settle(nl, p.tab, got)
		for n := range written {
			if written[n] && got[n] != want[n] {
				t.Fatalf("%s: the fused table settles %s to %v, its gates to %v", label, nl.Nets[n].Name, got[n], want[n])
			}
		}
	}
}

// coneOf returns the gates record r evaluates: its output's driver and,
// walking back, every gate driving a net the cone reads that is not one of
// r's inputs, which must be a combinational gate's.
func coneOf(t *testing.T, label string, nl *netlist.Netlist, r sim.FusedGate) []netlist.GateID {
	t.Helper()
	d := nl.Nets[r.Out].Driver
	if r.N == 0 {
		return []netlist.GateID{d}
	}
	cone, stack := []netlist.GateID{}, []netlist.GateID{d}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if slices.Contains(cone, g) {
			continue
		}
		cone = append(cone, g)
		for _, in := range nl.Gates[g].Inputs {
			if slices.Contains(r.In[:r.N], in) {
				continue
			}
			d := nl.Nets[in].Driver
			if d == netlist.NoGate || nl.Gates[d].Kind.Sequential() {
				t.Fatalf("%s: the record of %s reads %s, which is not among its inputs", label, nl.Nets[r.Out].Name, nl.Nets[in].Name)
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
// (120,480 in all on this input), and it sends, rolls back and records
// nothing.
func TestCutZeroRunIsPinned(t *testing.T) {
	ed, parts := alignedSoC(t)
	const cycles = 60
	res := runBothCfg(t, ed, parts, 2, cycles, 1, func(*Config) {})
	own := make([]uint64, 2)
	for _, p := range parts {
		own[p]++
	}
	for id, st := range res.PerCluster {
		if want := cycles * own[id]; st.Events != want || st.Messages != 0 || st.Rollbacks != 0 || st.Checkpoints != 0 {
			t.Errorf("cut-0 run, cluster %d: %d events, %d messages, %d rollbacks, %d checkpoints; want %d (%d cycles × %d gates), 0, 0, 0",
				id, st.Events, st.Messages, st.Rollbacks, st.Checkpoints, want, cycles, own[id])
		}
	}
}

// TestInputQueueStaysSorted steps three clusters of a randomly cut decoder
// by hand, over a transport that keeps them optimistic, under a random
// schedule with no optimism window, so stragglers, rollbacks and
// anti-messages for already consumed events are plentiful.
// Before every absorb each anti-message's positive is looked up by a linear
// scan of the input queue: the bisection absorbOne does must delete that
// very entry, and count it consumed exactly when the scan found it before
// the cursor. After every absorb the queue must be in (T, Src, Seq) order
// with the cursor where the cluster's cycle begins.
func TestInputQueueStaysSorted(t *testing.T) {
	nl := viterbiDesign(t).Netlist
	const k, cycles, seed = 3, 40, 41
	state := sim.StateNets(nl)
	h, err := newHost(Config{
		NL: nl, GateParts: randomParts(nl, k, 17), K: k,
		Vectors: sim.RandomVectors{Seed: seed}, Cycles: cycles, Observe: state,
		Transport: syncDelivery,
	}, "tw", nil)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(c *cluster, e event) int {
		for i, p := range c.inq {
			if p.Src == e.Src && p.Seq == e.Seq {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	consumedAntis := 0 // anti-messages whose positive had been consumed
	finished := func() bool {
		for _, c := range h.clusters {
			if c.cycle < cycles {
				return false
			}
		}
		return h.net.TotalSent() == h.absorbed.Load()
	}
	for !finished() {
		c := h.clusters[rng.Intn(k)]
		msgs := c.ep.TryRecvAll()
		st := absorbState{lvt: c.cycle, rollTo: math.MaxUint64}
		for _, m := range msgs {
			evs, _ := m.(batch)
			if e, ok := m.(event); ok {
				evs = batch{e}
			}
			for _, e := range evs {
				at, next, n := scan(c, e), c.next, len(c.inq)
				if e.Anti && at < 0 {
					t.Fatalf("cluster %d: anti-message (T=%d src=%d seq=%d) for an event the queue does not hold", c.id, e.T, e.Src, e.Seq)
				}
				if err := c.absorbOne(e, &st); err != nil {
					t.Fatal(err)
				}
				if !e.Anti {
					continue
				}
				if len(c.inq) != n-1 || scan(c, e) >= 0 {
					t.Fatalf("cluster %d: anti-message (T=%d src=%d seq=%d) left %d of %d entries, its positive among them: %v",
						c.id, e.T, e.Src, e.Seq, len(c.inq), n, scan(c, e) >= 0)
				}
				if consumed := at < next; consumed != (c.next == next-1) {
					t.Fatalf("cluster %d: positive at %d with the cursor at %d, cursor now %d", c.id, at, next, c.next)
				} else if consumed {
					consumedAntis++
				}
			}
		}
		if err := c.resolve(&st); err != nil { // runs checkLogs after a rollback
			t.Fatal(err)
		}
		h.absorbed.Add(uint64(len(msgs)))
		if err := c.checkLogs(); err != nil {
			t.Fatal(err)
		}
		if want := firstAt(c.inq, c.cycle); c.next != want {
			t.Fatalf("cluster %d at cycle %d: cursor %d, the cycle's first event is at %d of %d", c.id, c.cycle, c.next, want, len(c.inq))
		}
		if c.cycle < cycles && rng.Intn(3) > 0 {
			if err := c.processCycle(c.cycle); err != nil {
				t.Fatal(err)
			}
		}
	}

	var st Stats
	for _, c := range h.clusters {
		st.add(c.stats.Snapshot())
	}
	if st.Rollbacks == 0 || st.AntiMessages == 0 || consumedAntis == 0 {
		t.Errorf("schedule too tame: %d rollbacks, %d anti-messages, %d of them for consumed events",
			st.Rollbacks, st.AntiMessages, consumedAntis)
	}
	got := map[netlist.NetID][]bool{}
	for _, o := range h.collect().Observed {
		got[o.Net] = o.Values
	}
	compareObserved(t, nl, state, got, seqOracle(t, nl, state, cycles, seed), "hand-stepped")
	h.closeEndpoints()
}
