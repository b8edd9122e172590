package timewarp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

	p := compile(nl, make([]int32, len(nl.Gates)), 0, nil)
	if len(p.gates) != len(nl.Gates) {
		t.Fatalf("program has %d combinational gates, netlist %d", len(p.gates), len(nl.Gates))
	}
	// One cluster owns every gate, so local ids are global ids. A gate of
	// one or two inputs must be tabulated, and its table must be
	// sim.EvalGate's; a wider one must name itself for processCycle to hand
	// to sim.EvalGate. Routing every gate to the wide path would evaluate
	// right, and slowly.
	values := make([]bool, len(nl.Nets))
	for gi := range nl.Gates {
		g, r := &nl.Gates[gi], &p.gates[gi]
		if tabulated := len(g.Inputs) <= 2; tabulated != (r.TT < sim.Wide) {
			t.Errorf("%s: TT %d, want a table: %v", g.Path, r.TT, tabulated)
			continue
		}
		if r.TT == sim.Wide {
			if r.A != netlist.NetID(gi) {
				t.Errorf("%s: wide record names gate %d", g.Path, r.A)
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
			progs := make([]*program, k)
			for id := range progs {
				progs[id] = compile(nl, res.GateParts, int32(id), nl.POs)
				checkProgram(t, fmt.Sprintf("%s k=%d cluster %d", tc.name, k, id),
					nl, res.GateParts, int32(id), progs[id])
			}
			// A cluster has remote inputs exactly when some other cluster
			// would send to it.
			for id, p := range progs {
				heard := false
				for _, q := range progs {
					heard = heard || slices.Contains(q.dsts, int32(id))
				}
				if p.remoteIn != heard {
					t.Errorf("%s k=%d cluster %d: remoteIn %v, but listed as a reader by another cluster: %v",
						tc.name, k, id, p.remoteIn, heard)
				}
			}
		}
	}
}

func checkProgram(t *testing.T, label string, nl *netlist.Netlist, parts []int32, id int32, p *program) {
	t.Helper()
	// Local gate → GateID: own combinational gates, then own flip-flops.
	var global, dffs []netlist.GateID
	for gi := range nl.Gates {
		if parts[gi] != id {
			continue
		}
		if nl.Gates[gi].Kind.Sequential() {
			dffs = append(dffs, netlist.GateID(gi))
		} else {
			global = append(global, netlist.GateID(gi))
		}
	}
	if len(p.gates) != len(global) || len(p.latch) != len(dffs) {
		t.Fatalf("%s: %d gates and %d flip-flops, want %d and %d", label, len(p.gates), len(p.latch), len(global), len(dffs))
	}
	remote := func(n netlist.NetID) bool {
		for _, s := range nl.Nets[n].Sinks {
			if parts[s] != id {
				return true
			}
		}
		return false
	}
	for l, gi := range global {
		g := &nl.Gates[gi]
		want := gate{remote: remote(g.Output)}
		want.Out = g.Output
		switch len(g.Inputs) {
		case 1, 2:
			want.A, want.B = g.Inputs[0], g.Inputs[len(g.Inputs)-1]
			for i := range 4 { // bit a|b<<1, from the parser's evaluator
				if g.Kind.Eval([]bool{i&1 != 0, i&2 != 0}[:len(g.Inputs)]) {
					want.TT |= 1 << i
				}
			}
		default:
			want.A, want.TT = netlist.NetID(gi), sim.Wide
		}
		if p.gates[l] != want {
			t.Fatalf("%s: local gate %d is %+v, netlist gate %s (%v %v → %d) wants %+v",
				label, l, p.gates[l], g.Path, g.Kind, g.Inputs, g.Output, want)
		}
	}
	for i, gi := range dffs {
		g := &nl.Gates[gi]
		if want := (latchGate{d: g.Inputs[0], q: g.Output, remote: remote(g.Output)}); p.latch[i] != want {
			t.Fatalf("%s: flip-flop %d is %+v, netlist gate %s wants %+v", label, i, p.latch[i], g.Path, want)
		}
	}

	for n := range nl.Nets {
		net := &nl.Nets[n]
		var wantSinks []int
		wantDsts := map[int32]bool{}
		for _, s := range net.Sinks {
			if parts[s] == id && !nl.Gates[s].Kind.Sequential() {
				wantSinks = append(wantSinks, int(s))
			}
			if net.Driver != netlist.NoGate && parts[net.Driver] == id && parts[s] != id {
				wantDsts[parts[s]] = true
			}
		}
		sort.Ints(wantSinks)
		wantSinks = slices.Compact(wantSinks)

		var gotSinks []int
		for _, l := range p.sinks[p.sinkOff[n]:p.sinkOff[n+1]] {
			if l < 0 || int(l) >= len(p.gates) {
				t.Fatalf("%s: net %s sink %d is not a combinational local gate", label, net.Name, l)
			}
			gotSinks = append(gotSinks, int(global[l]))
		}
		if !sort.IntsAreSorted(gotSinks) {
			t.Fatalf("%s: net %s sinks %v not ascending: a delta would evaluate them in another order", label, net.Name, gotSinks)
		}
		if got := slices.Compact(gotSinks); fmt.Sprint(got) != fmt.Sprint(wantSinks) {
			t.Fatalf("%s: net %s sinks %v, want %v", label, net.Name, got, wantSinks)
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

	pos, own := 0, 0
	for _, pi := range nl.PIs {
		if nl.IsClockNet(pi) {
			continue
		}
		read := id == 0
		for _, s := range nl.Nets[pi].Sinks {
			read = read || parts[s] == id
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

// TestCutZeroRunIsPinned: on a partition that cuts nothing the kernel is
// deterministic, so the number of gate evaluations is a fingerprint of the
// within-delta evaluation order and the immediate writes. 98,295 is what
// the map-based kernel before the cluster program executed on this input.
// Neither cluster hears from the other, so neither saves any state.
func TestCutZeroRunIsPinned(t *testing.T) {
	ed, parts := alignedSoC(t)
	st := runBoth(t, ed, parts, 2, 60, 1)
	if st.Events != 98295 || st.Messages != 0 || st.Rollbacks != 0 || st.Checkpoints != 0 {
		t.Errorf("cut-0 run: %d events, %d messages, %d rollbacks, %d checkpoints; want 98295, 0, 0, 0",
			st.Events, st.Messages, st.Rollbacks, st.Checkpoints)
	}
}

// TestInputQueueStaysSorted steps three clusters of a randomly cut decoder
// by hand under a random schedule with no optimism window, so stragglers,
// rollbacks and anti-messages for already consumed events are plentiful.
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
		st := absorbState{lvt: c.cycle * c.deltaRange, rollTo: math.MaxUint64}
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
		if want := firstAt(c.inq, c.cycle*c.deltaRange); c.next != want {
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
