package sim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// fuseFamilies are the circuits FuzzFuse fuses slices of, each elaborated
// once per process. The random hierarchical one has gates of three and four
// inputs, which stay unfused.
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
}

// FuzzFuse draws a gen family, a slice of its sweep table (each gate kept
// with a drawn probability), a live set (each net live with another) and
// net values, and fuses the slice. Settling the fused table must leave every
// live net the slice drives, and every record's output, as settling the
// slice gate by gate does. The records must write distinct nets the slice
// drives, each after every record whose output it reads, read at most four
// distinct inputs, keep a wide gate whole, and write every live net.
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
		live := make([]bool, len(nl.Nets))
		for n := range live {
			live[n] = rng.Intn(256) < int(liveness)
		}
		fused := Fuse(nl, slice, func(n netlist.NetID) bool { return live[n] })

		drives := make([]bool, len(nl.Nets)) // nets the slice drives
		for _, g := range slice {
			drives[g.Out] = true
		}
		written := make([]bool, len(nl.Nets))
		for i, r := range fused {
			if !drives[r.Out] || written[r.Out] {
				t.Fatalf("record %d writes %s: driven by the slice %v, by an earlier record %v", i, nl.Nets[r.Out].Name, drives[r.Out], written[r.Out])
			}
			ins := r.In[:r.N]
			if r.N == 0 {
				g := &nl.Gates[r.In[0]]
				if len(g.Inputs) <= 2 || g.Output != r.Out {
					t.Fatalf("record %d: wide record names gate %s of %d inputs driving %s", i, g.Path, len(g.Inputs), nl.Nets[g.Output].Name)
				}
				ins = g.Inputs
			}
			if r.N > 4 {
				t.Fatalf("record %d reads %d inputs", i, r.N)
			}
			for j, in := range ins {
				if drives[in] && !written[in] {
					t.Fatalf("record %d reads %s before a record writes it", i, nl.Nets[in].Name)
				}
				for _, dup := range ins[:j] {
					if r.N > 0 && dup == in {
						t.Fatalf("record %d reads %s twice", i, nl.Nets[in].Name)
					}
				}
			}
			for _, in := range r.In[r.N:] {
				if r.N > 0 && in != r.In[0] {
					t.Fatalf("record %d: unused slot holds %s, not its first input", i, nl.Nets[in].Name)
				}
			}
			written[r.Out] = true
		}
		for n := range live {
			if live[n] && drives[n] && !written[n] {
				t.Fatalf("live net %s is no record's output", nl.Nets[n].Name)
			}
		}

		want := make([]bool, len(nl.Nets))
		for n := range want {
			want[n] = rng.Intn(2) == 1
		}
		got := append([]bool(nil), want...)
		for i := range slice {
			if g := &slice[i]; g.TT < Wide {
				want[g.Out] = g.Eval(want)
			} else {
				want[g.Out] = EvalGate(&nl.Gates[g.A], want)
			}
		}
		Settle(nl, fused, got)
		for n := range want {
			if written[n] && got[n] != want[n] {
				t.Fatalf("net %s (live %v): fused %v, gate by gate %v", nl.Nets[n].Name, live[n], got[n], want[n])
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
	fused := Fuse(w.NL, w.tab, clusterLive(w.NL))
	t.Logf("%d gates, %d records", len(w.tab), len(fused))
	if 2*len(fused) > len(w.tab) {
		t.Errorf("%d gates fused into %d records, want at most half", len(w.tab), len(fused))
	}
}

// clusterLive is the live rule of a one-cluster run that observes nl's
// output ports: a net a flip-flop or a wide gate reads, or an output port.
func clusterLive(nl *netlist.Netlist) func(netlist.NetID) bool {
	live := make([]bool, len(nl.Nets))
	for _, n := range nl.POs {
		live[n] = true
	}
	for _, g := range nl.Gates {
		if g.Kind.Sequential() || len(g.Inputs) > 2 {
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
	fused := Fuse(w.NL, w.tab, clusterLive(w.NL))
	b.Run("fused", func(b *testing.B) {
		for range b.N {
			Settle(w.NL, fused, values)
		}
		b.ReportMetric(float64(len(fused)), "records")
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
		fusedSink = Fuse(w.NL, w.tab, live)
	}
}

// fusedSink keeps BenchmarkFuse's result alive.
var fusedSink []FusedGate
