package hypergraph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/elab"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// layoutDigests pins every field of the hypergraph views Build produces:
// sha256 (first 8 bytes) of layoutDigest's dump. Recorded before Build
// became a two-pass construction over shared pin and incidence arrays; a
// mismatch means a vertex, edge, pin or incidence moved, which moves every
// partition built on the view.
var layoutDigests = map[string]string{
	"soc/hier":            "5307d8e2df82a26c",
	"soc/depth2":          "d83a068715d57b14",
	"soc/depth3":          "1946b3000a9e24cd",
	"soc/depth4":          "31c2b2487fca0ab4",
	"soc/depth5":          "62b34d8a3e0942f7",
	"soc/flat":            "6dfff21bc0894da7",
	"soc/multiway1":       "ce20fca0e87fc0d6",
	"soc/multiway2":       "d83a068715d57b14",
	"soc/multiway3":       "821a375f57a65bbc",
	"soc/multiway4":       "d78a4a7956eb9809",
	"viterbi/hier":        "0b5aa09b470a0b2c",
	"viterbi/depth2":      "5c2767d8fe2c5dfb",
	"viterbi/depth3":      "bc7048da10527f02",
	"viterbi/flat":        "b0501d366e7a2268",
	"multiplier32/hier":   "2b0fa485f93df64c",
	"multiplier32/depth2": "344140b31f17b516",
	"multiplier32/flat":   "a3ff9420c04ff6e4",
}

// layoutDigest hashes h field by field: each vertex's ID, name, weight,
// instance, gate and incident edges; each edge's ID, net, pins and
// weight; GateVertex; TotalWeight.
func layoutDigest(h *hypergraph.H) string {
	s := sha256.New()
	put := func(xs ...int64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			s.Write(b[:])
		}
	}
	putList := func(n int, at func(i int) int64) {
		put(int64(n))
		for i := 0; i < n; i++ {
			put(at(i))
		}
	}
	put(int64(len(h.Vertices)))
	for vi := range h.Vertices {
		v := &h.Vertices[vi]
		inst := int64(-1)
		if v.Inst != nil {
			inst = int64(v.Inst.ID)
		}
		put(int64(v.ID), int64(len(v.Name)))
		s.Write([]byte(v.Name))
		put(int64(v.Weight), inst, int64(v.Gate))
		putList(len(v.Edges), func(i int) int64 { return int64(v.Edges[i]) })
	}
	put(int64(len(h.Edges)))
	for ei := range h.Edges {
		e := &h.Edges[ei]
		put(int64(e.ID), int64(e.Net), int64(e.Weight))
		putList(len(e.Pins), func(i int) int64 { return int64(e.Pins[i]) })
	}
	putList(len(h.GateVertex), func(i int) int64 { return int64(h.GateVertex[i]) })
	put(int64(h.TotalWeight))
	return hex.EncodeToString(s.Sum(nil)[:8])
}

// layoutViews returns every view the test pins for one design, keyed by
// name: the hierarchical view, OpenToDepth(d) for each depth between it
// and the flat view, the flat view, and the view after each flattening
// step of the restart Multiway(K=4, B=10, Seed=1) keeps.
func layoutViews(t *testing.T, ed *elab.Design) ([]string, []*hypergraph.H) {
	t.Helper()
	var names []string
	var views []*hypergraph.H
	add := func(name string, h *hypergraph.H, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		views = append(views, h)
	}
	h, err := hypergraph.BuildHierarchical(ed)
	add("hier", h, err)
	for depth := 2; depth <= ed.MaxDepth(); depth++ {
		b := hypergraph.NewBuilder(ed)
		b.OpenToDepth(depth)
		h, err := b.Build()
		add(fmt.Sprintf("depth%d", depth), h, err)
	}
	h, err = hypergraph.BuildFlat(ed)
	add("flat", h, err)

	// Replay the flattening steps of the restart Multiway keeps. Each step
	// is a "flatten" instant carrying its restart and the flattened
	// super-gate's weight; the step's instance is the super-gate of that
	// weight in the current view that the final view has opened (lowest ID
	// on a tie). The kept restart is the first whose replay ends in
	// Multiway's final view.
	o := obs.New(obs.Options{})
	res, err := partition.Multiway(ed, partition.Options{K: 4, B: 10, Seed: 1, Workers: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := o.Events()
	weights := map[int][]int{} // restart → flattened weights in order
	restarts := 0
	for _, ev := range events {
		switch ev.Name {
		case "flatten":
			r := int(ev.Args[0].Val)
			weights[r] = append(weights[r], int(ev.Args[1].Val))
		case "refine":
			restarts++
		}
	}
	opened := map[*elab.Instance]bool{}
	for _, inst := range ed.Instances {
		opened[inst] = true
	}
	for vi := range res.H.Vertices {
		if inst := res.H.Vertices[vi].Inst; inst != nil {
			opened[inst] = false
		}
	}
	want := layoutDigest(res.H)
	for r := 0; r < restarts; r++ {
		if len(weights[r]) != res.Flattened {
			continue
		}
		steps, ok := replayFlattening(t, ed, weights[r], opened)
		if !ok || layoutDigest(steps[len(steps)-1]) != want {
			continue
		}
		for i, h := range steps[1:] {
			add(fmt.Sprintf("multiway%d", i+1), h, nil)
		}
		return names, views
	}
	t.Fatalf("no restart's flattening steps replay to Multiway's final view")
	return nil, nil
}

// replayFlattening rebuilds runOnce's starting view and then opens, for
// each weight in turn, the lowest-ID super-gate of that weight that the
// final view has opened. It returns the starting view and the view after
// each step, or false if some step finds no such super-gate.
func replayFlattening(t *testing.T, ed *elab.Design, weights []int, opened map[*elab.Instance]bool) ([]*hypergraph.H, bool) {
	t.Helper()
	b := hypergraph.NewBuilder(ed)
	h, err := b.Build()
	for depth := 1; err == nil && h.NumVertices() < 4 && depth <= 16; depth++ {
		b.OpenToDepth(depth + 1)
		h, err = b.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	steps := []*hypergraph.H{h}
	for _, w := range weights {
		var inst *elab.Instance
		for vi := range h.Vertices {
			if v := &h.Vertices[vi]; v.IsSuper() && v.Weight == w && opened[v.Inst] {
				inst = v.Inst
				break
			}
		}
		if inst == nil {
			return nil, false
		}
		b.Open(inst)
		if h, err = b.Build(); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, h)
	}
	return steps, true
}

// TestBuildLayoutGolden pins Build's output — vertex order, edge order,
// pin order and incidence order — on the SoC, the Viterbi decoder and a
// 32-bit multiplier across hierarchical, per-depth, flat and
// Multiway-flattened views (Multiway flattens the SoC four times and the
// other two not at all).
func TestBuildLayoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("layout sweep in -short mode")
	}
	designs := []struct {
		name string
		c    *gen.Circuit
	}{
		{"soc", gen.ViterbiSoC(gen.DefaultSoC)},
		{"viterbi", gen.Viterbi(gen.DefaultViterbi)},
		{"multiplier32", gen.Multiplier(32)},
	}
	seen := 0
	for _, d := range designs {
		ed, err := d.c.Elaborate()
		if err != nil {
			t.Fatal(err)
		}
		names, views := layoutViews(t, ed)
		for i, name := range names {
			key := d.name + "/" + name
			got := layoutDigest(views[i])
			want, ok := layoutDigests[key]
			if !ok {
				t.Errorf("%q: %q, // no recorded digest", key, got)
				continue
			}
			seen++
			if got != want {
				t.Errorf("%s: digest %s, recorded %s", key, got, want)
			}
		}
	}
	if seen != len(layoutDigests) {
		t.Errorf("compared %d digests, table holds %d", seen, len(layoutDigests))
	}
}

// TestBuildFlatAllocs holds Build to a fixed number of arrays: the flat
// view of the 17,776-gate SoC takes at most 100 allocations (55,104 when
// every net and every incidence list was grown by append).
func TestBuildFlatAllocs(t *testing.T) {
	ed, err := gen.ViterbiSoC(gen.DefaultSoC).Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := hypergraph.BuildFlat(ed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("BuildFlat(SoC): %.0f allocations, want at most 100", allocs)
	}
}
