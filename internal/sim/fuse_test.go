package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// fanoutSrc is a circuit whose NAND n feeds two gates and whose NOR m
// feeds three, each of them an output port's driver: neither n nor m is
// live, and every reader can absorb its function within four inputs.
const fanoutSrc = `
module fanout (input a, input b, input c, input d, input e,
               output x, output y, output z, output w, output v);
  wire n, m;
  nand g0 (n, a, b);
  and  g1 (x, n, c);
  or   g2 (y, n, d);
  nor  g3 (m, c, d);
  xor  g4 (z, m, e);
  and  g5 (w, m, a);
  xnor g6 (v, m, b);
endmodule
`

// fanoutFamily is fanoutSrc's index in fuseFamilies.
const fanoutFamily = 7

// fuseFamilies are the circuits FuzzFuse fuses slices of, each elaborated
// once per process. The random hierarchical one has gates of three and four
// inputs, the wide one gates of up to nine, fanoutSrc records of two and
// three readers.
var fuseFamilies = []func() (*elab.Design, error){
	sync.OnceValues(gen.LFSR(16, nil).Elaborate),
	sync.OnceValues(gen.Multiplier(5).Elaborate),
	sync.OnceValues(gen.FIR(gen.FIRConfig{Taps: 6, W: 5, Seed: 3}).Elaborate),
	sync.OnceValues(gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 6}).Elaborate),
	sync.OnceValues(gen.RandomHierarchical(gen.RandHierConfig{
		ModuleTypes: 6, GatesPerModule: 15, InstancesPerModule: 2, TopInstances: 6,
		PIs: 8, Seed: 5, DFFFraction: 0.25,
	}).Elaborate),
	sync.OnceValues(gen.ViterbiSoC(gen.SoCConfig{
		Channels: 2, Viterbi: gen.ViterbiConfig{K: 3, W: 4, TB: 4}, ScramblerBits: 8, CRCBits: 8,
	}).Elaborate),
	sync.OnceValues(gen.WideGates(60, 7).Elaborate),
	sync.OnceValues(func() (*elab.Design, error) {
		d, err := verilog.Parse(fanoutSrc)
		if err != nil {
			return nil, err
		}
		return elab.Elaborate(d, "fanout")
	}),
}

// FuzzFuse draws a gen family, a slice of its sweep table (each gate kept
// with a drawn probability), a live set (each net live with another), the
// nets named (every live net the slice drives, and others with a third
// probability) and net values, and fuses the slice. The program's slots
// must be its inputs — nets the slice does not drive, each once, the named
// ones first in the order named — then one per record, each a net the
// slice drives once or a chain link; record i must read only slots below
// Base+i, each distinct input once and the rest repeating the first; every
// named net must map to its slot, a live one to a record's; every record
// that is neither live nor named must have a reader, and none may fold
// into all its readers (foldable); settling the program over slots loaded
// from the net values must leave every record's net, read through the
// map, as settling the slice gate by gate leaves it; and the narrow
// records, settled from the same slots over a narrowSlots array, must
// leave every slot as Settle does.
func FuzzFuse(f *testing.F) {
	for fam := range fuseFamilies {
		f.Add(uint8(fam), uint8(255), uint8(0), int64(fam))
		f.Add(uint8(fam), uint8(200), uint8(40), int64(fam+1))
		f.Add(uint8(fam), uint8(128), uint8(128), int64(fam+2))
	}
	// The whole fanout circuit, nothing live: n's record has two readers,
	// m's three, and both fold into all of them.
	f.Add(uint8(fanoutFamily), uint8(255), uint8(0), int64(1))
	f.Fuzz(func(t *testing.T, family, keep, liveness uint8, seed int64) {
		ed, err := fuseFamilies[int(family)%len(fuseFamilies)]()
		if err != nil {
			t.Fatal(err)
		}
		nl := ed.Netlist
		w, err := NewSweep(nl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		slice := w.AppendSlice(nil, func(netlist.GateID) bool { return rng.Intn(256) <= int(keep) })
		drives := make([]bool, len(nl.Nets)) // nets the slice drives
		for _, g := range slice {
			drives[g.Out] = true
		}
		live := make([]bool, len(nl.Nets))
		var named []netlist.NetID
		for n := range live {
			live[n] = rng.Intn(256) < int(liveness)
			if live[n] && drives[n] || !drives[n] && rng.Intn(3) == 0 {
				named = append(named, netlist.NetID(n))
			}
		}
		p, slots := Fuse(nl, slice, func(n netlist.NetID) bool { return live[n] }, named)
		base, end := int(p.Base), int(p.Base)+len(p.Tab)
		if end != len(p.Nets) {
			t.Fatalf("%d inputs and %d records in %d slots", base, len(p.Tab), len(p.Nets))
		}

		slot := make(map[netlist.NetID]int) // every net with a slot
		for s, n := range p.Nets {
			if n == NoNet {
				if s < base || s >= end {
					t.Fatalf("slot %d of %d..%d holds no net", s, base, end)
				}
				continue
			}
			if _, dup := slot[n]; dup {
				t.Fatalf("%s has slots %d and %d", nl.Nets[n].Name, slot[n], s)
			}
			if drives[n] != (s >= base && s < end) {
				t.Fatalf("slot %d (inputs below %d, records below %d) holds %s, which the slice drives: %v", s, base, end, nl.Nets[n].Name, drives[n])
			}
			slot[n] = s
		}
		for i, r := range p.Tab {
			w := 1
			for w < 4 && r.In[w] != r.In[0] {
				w++
			}
			for j, s := range r.In {
				if int(s) < 0 || int(s) >= base+i {
					t.Fatalf("record %d (slot %d) reads slot %d: inputs lie below %d", i, base+i, s, base+i)
				}
				if j < w && slices.Contains(r.In[:j], s) || j >= w && s != r.In[0] {
					t.Fatalf("record %d reads slots %v: distinct ones, then the first repeated", i, r.In)
				}
			}
		}
		next := int32(0) // the slot of the next named net the slice does not drive
		for j, n := range named {
			if int(slots[j]) >= len(p.Nets) || p.Nets[slots[j]] != n {
				t.Fatalf("named net %s maps to slot %d", nl.Nets[n].Name, slots[j])
			}
			if !drives[n] {
				if slots[j] != next {
					t.Fatalf("named input %s has slot %d, want %d: the named inputs come first, in order", nl.Nets[n].Name, slots[j], next)
				}
				next++
			}
		}
		for n := range live {
			if s, ok := slot[netlist.NetID(n)]; live[n] && drives[n] && (!ok || s < base) {
				t.Fatalf("live net %s is no record's output", nl.Nets[n].Name)
			}
		}
		isNamed := make([]bool, len(nl.Nets))
		for _, n := range named {
			isNamed[n] = true
		}
		kept := func(n netlist.NetID) bool { return live[n] || isNamed[n] }
		if i, ok := unread(&p, kept); ok {
			t.Fatalf("record %d (%v) is neither live nor named, and no record reads it", i, p.Tab[i])
		}
		if i, ok := foldable(&p, kept); ok {
			t.Fatalf("record %d (%v) folds into all its readers", i, p.Tab[i])
		}

		want := make([]bool, len(nl.Nets))
		for n := range want {
			want[n] = rng.Intn(2) == 1
		}
		got := make([]bool, len(p.Nets))
		for s := range got {
			got[s] = rng.Intn(2) == 1 // what a chain link's slot holds does not matter
		}
		p.Load(got, want)
		var fixed [narrowSlots]bool // len(p.Nets) is far below narrowSlots
		copy(fixed[:], got)
		for i := range slice {
			if g := &slice[i]; g.TT < Wide {
				want[g.Out] = g.Eval(want)
			} else {
				want[g.Out] = EvalGate(&nl.Gates[g.A], want)
			}
		}
		Settle(&p, got)
		for s, n := range p.Nets {
			if n != NoNet && got[s] != want[n] {
				t.Fatalf("net %s (slot %d, live %v): fused %v, gate by gate %v", nl.Nets[n].Name, s, live[n], got[s], want[n])
			}
		}
		settleNarrow(narrow(p.Tab), p.Base, &fixed)
		for s := range got {
			if got[s] != fixed[s] {
				t.Fatalf("slot %d: Settle %v, the narrow records %v", s, got[s], fixed[s])
			}
		}
	})
}

// TestFuseFolds holds Fuse to the point of it on the full two-channel SoC
// table, live by a Machine's rule with the output ports observed (a
// one-cluster run, or Levelized): at most half as many records as gates.
func TestFuseFolds(t *testing.T) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSweep(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Fuse(w.NL, w.tab, machineLive(w.NL, w.tab, all, w.NL.POs), nil)
	t.Logf("%d gates, %d records, %d input slots", len(w.tab), len(p.Tab), p.Base)
	if 2*len(p.Tab) > len(w.tab) {
		t.Errorf("%d gates fused into %d records, want at most half", len(w.tab), len(p.Tab))
	}
}

// TestFuseFoldsThroughFanout: a record whose output is neither live nor
// named folds into every record that reads it. On fanoutSrc the NAND's and
// the NOR's records are gone, each reader reads their inputs instead, and
// the program settles every output as the gates do on all 32 input
// vectors. On the full SoC, sliced as a one-cluster run slices it, the
// records are a fixed point: none left could fold into all its readers.
func TestFuseFoldsThroughFanout(t *testing.T) {
	ed, err := fuseFamilies[fanoutFamily]()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	w, err := NewSweep(nl)
	if err != nil {
		t.Fatal(err)
	}
	net := func(name string) netlist.NetID {
		for n := range nl.Nets {
			if nl.Nets[n].Name == "fanout."+name {
				return netlist.NetID(n)
			}
		}
		t.Fatalf("no net %s", name)
		return NoNet
	}
	live := machineLive(nl, w.tab, all, nl.POs)
	p, _ := Fuse(nl, w.tab, live, nil)
	if len(p.Tab) != len(nl.POs) {
		t.Fatalf("%d records, want one per output port (%d)", len(p.Tab), len(nl.POs))
	}
	for _, folded := range []string{"n", "m"} {
		if slices.Contains(p.Nets, net(folded)) {
			t.Errorf("%s has a slot; it should live in its readers' records", folded)
		}
	}
	reads := func(out string, ins ...string) {
		t.Helper()
		i := slices.Index(p.Nets, net(out)) - int(p.Base)
		if i < 0 {
			t.Fatalf("%s is no record's output", out)
		}
		r := p.Tab[i]
		var got []netlist.NetID
		for _, s := range r.In[:width(r.In)] {
			got = append(got, p.Nets[s])
		}
		for _, in := range ins {
			if !slices.Contains(got, net(in)) {
				t.Errorf("the record of %s reads %v, not %s", out, got, in)
			}
		}
	}
	reads("x", "a", "b", "c")
	reads("y", "a", "b", "d")
	reads("z", "c", "d", "e")
	reads("w", "c", "d", "a")
	reads("v", "c", "d", "b")
	want := make([]bool, len(nl.Nets))
	got := make([]bool, len(p.Nets))
	for v := range 1 << len(w.PIs) {
		for i, pi := range w.PIs {
			want[pi] = v>>i&1 != 0
		}
		p.Load(got, want)
		w.settle(want)
		Settle(&p, got)
		for _, po := range nl.POs {
			if s := slices.Index(p.Nets, po); got[s] != want[po] {
				t.Fatalf("inputs %05b: %s fused %v, gate by gate %v", v, nl.Nets[po].Name, got[s], want[po])
			}
		}
	}

	soc, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	if w, err = NewSweep(soc.Netlist); err != nil {
		t.Fatal(err)
	}
	live = machineLive(soc.Netlist, w.tab, all, soc.Netlist.POs)
	p, _ = Fuse(soc.Netlist, w.tab, live, nil)
	if i, ok := foldable(&p, live); ok {
		t.Fatalf("record %d (%v) of %d could still fold into all its readers", i, p.Tab[i], len(p.Tab))
	}
}

// all is the kept of a Machine over a sweep's whole table.
func all(netlist.GateID) bool { return true }

// unread returns a record of p whose output keep does not report and that
// no record reads, when there is one. A chain link's output is never kept.
func unread(p *Program, keep func(netlist.NetID) bool) (int, bool) {
	read := make([]bool, len(p.Nets))
	for _, r := range p.Tab {
		for _, s := range r.In {
			read[s] = true
		}
	}
	for i := range p.Tab {
		s := p.Base + int32(i)
		if n := p.Nets[s]; !read[s] && (n == NoNet || !keep(n)) {
			return i, true
		}
	}
	return 0, false
}

// foldable returns a record of p whose output keep does not report and
// that every record reading it could absorb within four distinct inputs,
// when there is one. A chain link's output is never kept.
func foldable(p *Program, keep func(netlist.NetID) bool) (int, bool) {
	distinct := func(in [4]int32) []int32 { return in[:width(in)] }
	readers := make([][]int, len(p.Nets))
	for j, r := range p.Tab {
		for _, s := range distinct(r.In) {
			readers[s] = append(readers[s], j)
		}
	}
	for i, r := range p.Tab {
		s := p.Base + int32(i)
		if n := p.Nets[s]; n != NoNet && keep(n) || len(readers[s]) == 0 {
			continue
		}
		fits := true
		for _, j := range readers[s] {
			u := slices.DeleteFunc(slices.Clone(distinct(p.Tab[j].In)), func(v int32) bool { return v == s })
			for _, v := range distinct(r.In) {
				if !slices.Contains(u, v) {
					u = append(u, v)
				}
			}
			fits = fits && len(u) <= 4
		}
		if fits {
			return i, true
		}
	}
	return 0, false
}

// BenchmarkSettle times one settle of the full two-channel SoC's table:
// the sweep's TruthGate records, the same table fused as a one-cluster run
// fuses it and settled by Settle, and its narrow records settled over a
// narrowSlots array, as a Machine settles them.
func BenchmarkSettle(b *testing.B) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewSweep(ed.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	values := append([]bool(nil), w.PowerOn...)
	b.Run("truth", func(b *testing.B) {
		for range b.N {
			w.settle(values)
		}
		b.ReportMetric(float64(len(w.tab)), "records")
	})
	p, _ := Fuse(w.NL, w.tab, machineLive(w.NL, w.tab, all, w.NL.POs), nil)
	slots := make([]bool, len(p.Nets))
	p.Load(slots, values)
	b.Run("fused", func(b *testing.B) {
		for range b.N {
			Settle(&p, slots)
		}
		b.ReportMetric(float64(len(p.Tab)), "records")
	})
	tab, fixed := narrow(p.Tab), new([narrowSlots]bool)
	p.Load(fixed[:len(p.Nets)], values)
	b.Run("narrow", func(b *testing.B) {
		for range b.N {
			settleNarrow(tab, p.Base, fixed)
		}
		b.ReportMetric(float64(len(tab)), "records")
	})
}

// BenchmarkFuse times fusing the full two-channel SoC's table as a
// one-cluster run does: what fusion adds to compiling a run.
func BenchmarkFuse(b *testing.B) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewSweep(ed.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	live := machineLive(w.NL, w.tab, all, w.NL.POs)
	b.ResetTimer()
	for range b.N {
		fusedSink, _ = Fuse(w.NL, w.tab, live, nil)
	}
}

// fusedSink keeps BenchmarkFuse's result alive.
var fusedSink Program
