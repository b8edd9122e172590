package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// fuseFamilies are the circuits FuzzFuse fuses slices of, each elaborated
// once per process. The random hierarchical one has gates of three and four
// inputs, the wide one gates of up to nine.
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
}

// FuzzFuse draws a gen family, a slice of its sweep table (each gate kept
// with a drawn probability), a live set (each net live with another), the
// nets named (every live net the slice drives, and others with a third
// probability) and net values, and fuses the slice. The program's slots
// must be its inputs — nets the slice does not drive, each once, the named
// ones first in the order named — then one per record, each a net the
// slice drives once or a chain link; record i must read only slots below
// Base+i, each distinct input once and the rest repeating the first; every
// named net must map to its slot, a live one to a record's; and settling
// the program over slots loaded from the net values must leave every
// record's net, read through the map, as settling the slice gate by gate
// leaves it.
func FuzzFuse(f *testing.F) {
	for fam := range fuseFamilies {
		f.Add(uint8(fam), uint8(255), uint8(0), int64(fam))
		f.Add(uint8(fam), uint8(200), uint8(40), int64(fam+1))
		f.Add(uint8(fam), uint8(128), uint8(128), int64(fam+2))
	}
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

		want := make([]bool, len(nl.Nets))
		for n := range want {
			want[n] = rng.Intn(2) == 1
		}
		got := make([]bool, len(p.Nets))
		for s := range got {
			got[s] = rng.Intn(2) == 1 // what a chain link's slot holds does not matter
		}
		p.Load(got, want)
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
	})
}

// TestFuseFolds holds Fuse to the point of it on the full two-channel SoC
// slice of a one-cluster run, live where a flip-flop, a wide gate or an
// output port reads: at most half as many records as gates.
func TestFuseFolds(t *testing.T) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewSweep(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := Fuse(w.NL, w.tab, clusterLive(w.NL), nil)
	t.Logf("%d gates, %d records, %d input slots", len(w.tab), len(p.Tab), p.Base)
	if 2*len(p.Tab) > len(w.tab) {
		t.Errorf("%d gates fused into %d records, want at most half", len(w.tab), len(p.Tab))
	}
}

// clusterLive is the live rule of a one-cluster run that observes nl's
// output ports: a net a flip-flop reads, or an output port.
func clusterLive(nl *netlist.Netlist) func(netlist.NetID) bool {
	live := make([]bool, len(nl.Nets))
	for _, n := range nl.POs {
		live[n] = true
	}
	for _, g := range nl.Gates {
		if g.Kind.Sequential() {
			for _, in := range g.Inputs {
				live[in] = true
			}
		}
	}
	return func(n netlist.NetID) bool { return live[n] }
}

// BenchmarkSettle times one settle of the full two-channel SoC's table:
// the sweep's TruthGate records, and the same table fused as a one-cluster
// run fuses it.
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
	p, _ := Fuse(w.NL, w.tab, clusterLive(w.NL), nil)
	slots := make([]bool, len(p.Nets))
	p.Load(slots, values)
	b.Run("fused", func(b *testing.B) {
		for range b.N {
			Settle(&p, slots)
		}
		b.ReportMetric(float64(len(p.Tab)), "records")
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
	live := clusterLive(w.NL)
	b.ResetTimer()
	for range b.N {
		fusedSink, _ = Fuse(w.NL, w.tab, live, nil)
	}
}

// fusedSink keeps BenchmarkFuse's result alive.
var fusedSink Program
