package sim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

func elaborate(t *testing.T, src, top string) *elab.Design {
	t.Helper()
	d, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := elab.Elaborate(d, top)
	if err != nil {
		t.Fatal(err)
	}
	return ed
}

func poByName(t *testing.T, nl *netlist.Netlist, suffix string) netlist.NetID {
	t.Helper()
	for _, po := range nl.POs {
		name := nl.Nets[po].Name
		if len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix {
			return po
		}
	}
	t.Fatalf("PO %q not found", suffix)
	return -1
}

func TestFullAdderTruthTable(t *testing.T) {
	src := `
module fa (input a, input b, input cin, output sum, output cout);
  wire ab, t1, t2;
  xor x1 (ab, a, b);
  xor x2 (sum, ab, cin);
  and a1 (t1, ab, cin);
  and a2 (t2, a, b);
  or  o1 (cout, t1, t2);
endmodule
`
	ed := elaborate(t, src, "fa")
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	sum := poByName(t, ed.Netlist, "sum")
	cout := poByName(t, ed.Netlist, "cout")
	for v := 0; v < 8; v++ {
		a, b, cin := v&1 == 1, v&2 == 2, v&4 == 4
		if _, err := s.Step([]bool{a, b, cin}); err != nil {
			t.Fatal(err)
		}
		n := 0
		if a {
			n++
		}
		if b {
			n++
		}
		if cin {
			n++
		}
		if got := s.Value(sum); got != (n%2 == 1) {
			t.Errorf("a=%v b=%v cin=%v: sum=%v", a, b, cin, got)
		}
		if got := s.Value(cout); got != (n >= 2) {
			t.Errorf("a=%v b=%v cin=%v: cout=%v", a, b, cin, got)
		}
	}
}

func TestMultiplierComputesProducts(t *testing.T) {
	const n = 4
	c := gen.Multiplier(n)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	// Vector layout: PIs in port order (a MSB-first, then b MSB-first;
	// clk excluded). Product is registered, so it appears one cycle later.
	nl := ed.Netlist
	setVec := func(a, b uint) []bool {
		vec := make([]bool, s.VectorWidth())
		for i, pi := range s.VectorPIs() {
			name := nl.Nets[pi].Name
			var idx int
			var ch byte
			if _, err := sscanfBit(name, &ch, &idx); err != nil {
				t.Fatalf("cannot parse PI name %s", name)
			}
			switch ch {
			case 'a':
				vec[i] = a>>uint(idx)&1 == 1
			case 'b':
				vec[i] = b>>uint(idx)&1 == 1
			}
		}
		return vec
	}
	readP := func() uint {
		var p uint
		for _, po := range nl.POs {
			name := nl.Nets[po].Name
			var ch byte
			var idx int
			if _, err := sscanfBit(name, &ch, &idx); err != nil {
				t.Fatalf("cannot parse PO name %s", name)
			}
			if s.Value(po) {
				p |= 1 << uint(idx)
			}
		}
		return p
	}
	cases := [][2]uint{{0, 0}, {1, 1}, {3, 5}, {15, 15}, {7, 9}, {12, 13}, {2, 8}}
	for _, c := range cases {
		if _, err := s.Step(setVec(c[0], c[1])); err != nil {
			t.Fatal(err)
		}
		// One more cycle with the same inputs so the registered product
		// is visible.
		if _, err := s.Step(setVec(c[0], c[1])); err != nil {
			t.Fatal(err)
		}
		if got, want := readP(), c[0]*c[1]; got != want {
			t.Errorf("%d*%d: got %d, want %d", c[0], c[1], got, want)
		}
	}
}

// sscanfBit parses names like "top.a[3]" or "top.p[7]" into (letter, bit).
func sscanfBit(name string, ch *byte, idx *int) (int, error) {
	// Find the last '[' and the preceding letter.
	lb := -1
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '[' {
			lb = i
			break
		}
	}
	if lb <= 0 {
		return 0, errNoBit
	}
	*ch = name[lb-1]
	n := 0
	for i := lb + 1; i < len(name) && name[i] != ']'; i++ {
		n = n*10 + int(name[i]-'0')
	}
	*idx = n
	return 2, nil
}

var errNoBit = errString("no bit suffix")

type errString string

func (e errString) Error() string { return string(e) }

func TestDffLatchesAtCycleBoundary(t *testing.T) {
	src := `
module m (input d, input clk, output q);
  dff f (q, d, clk);
endmodule
`
	ed := elaborate(t, src, "m")
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	q := poByName(t, ed.Netlist, "q")
	// Convention: Value() after Step reflects the post-latch state (the
	// value at the start of the next cycle).
	if s.Value(q) {
		t.Error("q should start at 0")
	}
	if _, err := s.Step([]bool{true}); err != nil {
		t.Fatal(err)
	}
	if !s.Value(q) {
		t.Error("q should hold 1 sampled at the end of cycle 0")
	}
	if _, err := s.Step([]bool{false}); err != nil {
		t.Fatal(err)
	}
	if s.Value(q) {
		t.Error("q should drop to 0 after sampling d=0")
	}
}

func TestLFSRRunsAndToggles(t *testing.T) {
	c := gen.LFSR(16, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	events, err := s.Run(RandomVectors{Seed: 1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no gate evaluations in 200 cycles")
	}
	if s.Cycle() != 200 {
		t.Errorf("cycle count: got %d", s.Cycle())
	}
}

func TestViterbiActivity(t *testing.T) {
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	events, err := s.Run(RandomVectors{Seed: 7}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("viterbi produced no events")
	}
	// Every DFF must have been evaluated exactly once per cycle.
	for gi := range ed.Netlist.Gates {
		if ed.Netlist.Gates[gi].Kind.Sequential() && s.EvalCount[gi] != 100 {
			t.Fatalf("dff %s evaluated %d times, want 100",
				ed.Netlist.Gates[gi].Path, s.EvalCount[gi])
		}
	}
	// The decoder output should eventually toggle under random input.
	s.Reset()
	dec := poByName(t, ed.Netlist, "dec_out")
	sawTrue, sawFalse := false, false
	buf := make([]bool, s.VectorWidth())
	for cyc := uint64(0); cyc < 300; cyc++ {
		RandomVectors{Seed: 7}.Vector(cyc, buf)
		if _, err := s.Step(buf); err != nil {
			t.Fatal(err)
		}
		if s.Value(dec) {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Errorf("dec_out never toggled (true=%v false=%v)", sawTrue, sawFalse)
	}
}

func TestRandomVectorsDeterministic(t *testing.T) {
	a := make([]bool, 32)
	b := make([]bool, 32)
	RandomVectors{Seed: 5}.Vector(17, a)
	RandomVectors{Seed: 5}.Vector(17, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same (seed, cycle) produced different vectors")
		}
	}
	RandomVectors{Seed: 6}.Vector(17, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical vectors")
	}
}

// TestRandomVectorsMatchFreshGenerator pins the stimulus stream to the one
// a generator seeded afresh for the cycle draws, while four goroutines
// draw vectors at once, as clusters filling one stimulus row do: the
// generators RandomVectors reuses must carry nothing from one cycle, or
// one caller, to the next.
func TestRandomVectorsMatchFreshGenerator(t *testing.T) {
	const seed, cycles, width = 9, 200, 70
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]bool, width-w) // callers of different widths
			for c := uint64(0); c < cycles; c++ {
				RandomVectors{Seed: seed}.Vector(c, got)
				rng := rand.New(rand.NewSource(seed ^ int64(c*0x9E3779B97F4A7C15)))
				for i, v := range got {
					if want := rng.Int63()&1 == 1; v != want {
						t.Errorf("caller %d cycle %d bit %d: %v, a fresh generator draws %v", w, c, i, v, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestStepVectorWidthError(t *testing.T) {
	c := gen.LFSR(8, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step([]bool{true, false}); err == nil {
		t.Error("wrong-width vector should error")
	}
}

func TestTraceHooksFire(t *testing.T) {
	c := gen.LFSR(8, nil)
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ed.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	var evals, changes int
	s.OnGateEval = func(netlist.GateID, VTime) { evals++ }
	s.OnNetChange = func(netlist.NetID, VTime, bool) { changes++ }
	if _, err := s.Run(RandomVectors{Seed: 3}, 50); err != nil {
		t.Fatal(err)
	}
	if evals == 0 || changes == 0 {
		t.Errorf("hooks did not fire: evals=%d changes=%d", evals, changes)
	}
	if uint64(evals) != s.Events {
		t.Errorf("hook count %d != Events %d", evals, s.Events)
	}
}

// TestRecordMatchesStepping holds Record to a simulator stepped by hand over
// the state nets of a small decoder: every flip-flop output and primary
// output exactly once, each with the post-latch value of every cycle.
func TestRecordMatchesStepping(t *testing.T) {
	ed, err := gen.Viterbi(gen.ViterbiConfig{K: 3, W: 4, TB: 8}).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	nl := ed.Netlist
	state := StateNets(nl)
	listed := map[netlist.NetID]int{}
	for _, n := range state {
		listed[n]++
	}
	for _, po := range nl.POs {
		if listed[po] != 1 {
			t.Errorf("primary output %s listed %d times", nl.Nets[po].Name, listed[po])
		}
	}
	dffs := 0
	for i := range nl.Gates {
		if g := &nl.Gates[i]; g.Kind.Sequential() {
			dffs++
			if listed[g.Output] != 1 {
				t.Errorf("flip-flop output %s listed %d times", nl.Nets[g.Output].Name, listed[g.Output])
			}
		}
	}
	if dffs == 0 || len(listed) != len(state) || len(state) > len(nl.POs)+dffs {
		t.Fatalf("%d state nets (%d distinct) for %d primary outputs and %d flip-flops", len(state), len(listed), len(nl.POs), dffs)
	}

	const cycles = 50
	vs := RandomVectors{Seed: 9}
	waves, err := Record(nl, vs, cycles, state)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]bool, s.VectorWidth())
	for c := uint64(0); c < cycles; c++ {
		vs.Vector(c, buf)
		if _, err := s.Step(buf); err != nil {
			t.Fatal(err)
		}
		for _, n := range state {
			if len(waves[n]) != cycles || waves[n][c] != s.Value(n) {
				t.Fatalf("net %s cycle %d: recorded %d cycles, value differs from the stepped simulator", nl.Nets[n].Name, c, len(waves[n]))
			}
		}
	}
}
