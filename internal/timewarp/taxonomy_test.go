package timewarp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/causality"
	"repro/internal/partition"
	"repro/internal/sim"
)

// taxonomyRow is one row of DESIGN.md §11's name table.
type taxonomyRow struct{ name, kind string }

// policyPrefix stands, in the table, for either multilevel policy name:
// those span names are built by concatenation, so the sources hold only
// the suffix.
const policyPrefix = "<policy>"

// readTaxonomy parses the table between the taxonomy markers of DESIGN.md:
// rows of "| `name` | kind | layer | ...".
func readTaxonomy(t *testing.T) []taxonomyRow {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "<!-- taxonomy:begin -->")
	body, _, ok2 := strings.Cut(rest, "<!-- taxonomy:end -->")
	if !ok || !ok2 {
		t.Fatal("DESIGN.md has no <!-- taxonomy:begin/end --> block")
	}
	var rows []taxonomyRow
	for _, line := range strings.Split(body, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		rows = append(rows, taxonomyRow{
			name: strings.Trim(strings.TrimSpace(cells[1]), "`"),
			kind: strings.TrimSpace(cells[2]),
		})
	}
	if len(rows) == 0 {
		t.Fatal("taxonomy table has no rows")
	}
	return rows
}

var phaseKinds = map[byte]string{
	obs.PhaseSpan:    "span",
	obs.PhaseInstant: "instant",
	obs.PhaseCounter: "counter",
}

// emitted collects the (name, kind) pairs an observer saw: its trace
// events and its registry's metric families.
func emitted(into map[taxonomyRow]bool, o *obs.Observer) {
	evs, _ := o.Events()
	for _, e := range evs {
		into[taxonomyRow{e.Name, phaseKinds[e.Phase]}] = true
	}
	for _, f := range o.Snapshot().Families {
		into[taxonomyRow{f.Name, "metric"}] = true
	}
}

// TestTaxonomy holds DESIGN.md §11's table of span / instant / counter
// names and metric families to the code in both directions: a chaos
// run of the in-process kernel and a coordinator + 2 workers run must emit
// nothing the table lacks, and the table must list nothing that no
// non-test source under internal/ or cmd/ mentions.
func TestTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed runs are socket-heavy; skipped in -short")
	}
	rows := readTaxonomy(t)
	listed := map[taxonomyRow]bool{}
	for _, r := range rows {
		if listed[r] {
			t.Errorf("taxonomy lists %s %q twice", r.kind, r.name)
		}
		listed[r] = true
	}

	seen := map[taxonomyRow]bool{}
	c := gen.Viterbi(gen.ViterbiConfig{K: 4, W: 4, TB: 8})
	ed, err := c.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	const k = 4

	// The in-process kernel under chaos delivery, causality on, so that
	// links hold watermarks and clusters wait on them.
	o := obs.New(obs.Options{})
	if _, err := Run(Config{
		NL:        ed.Netlist,
		GateParts: randomParts(ed.Netlist, k, 3),
		K:         k,
		Vectors:   sim.RandomVectors{Seed: 3},
		Cycles:    40,
		Transport: comm.Chaos(comm.ChaosConfig{Seed: 3, StallEvery: 4, Obs: o}),
		Causality: causality.New(),
		Obs:       o,
	}); err != nil {
		t.Fatal(err)
	}
	emitted(seen, o)

	// Coordinator + 2 workers over loopback TCP, everything observed; the
	// coordinator's registry holds the Stats-backed families of every
	// cluster, from the workers' round reports.
	pr, err := partition.Multiway(ed, partition.Options{K: k, B: 10, Seed: 17, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	do := distObs{
		coord:   obs.New(obs.Options{}),
		workers: []*obs.Observer{obs.New(obs.Options{}), obs.New(obs.Options{})},
		probes:  []*Probe{NewProbe(), NewProbe()},
	}
	spec := &DistSpec{Source: c.Source, Top: c.Top, GateParts: pr.GateParts, K: k, Cycles: 500, VecSeed: 29}
	if _, runErr, workerErrs := distRunObs(t, spec, 2, 0, do); runErr != nil {
		t.Fatalf("coordinator: %v (workers: %v)", runErr, workerErrs)
	}
	// The coordinator runs no cluster, so a kernel family in its snapshot
	// is one it keeps from the reports.
	reported := map[taxonomyRow]bool{}
	emitted(reported, do.coord)
	for r := range reported {
		seen[r] = true
	}
	for _, wo := range do.workers {
		emitted(seen, wo)
	}

	for r := range seen {
		if !listed[r] {
			t.Errorf("a run emitted %s %q, which DESIGN.md §11's table lacks", r.kind, r.name)
		}
	}
	// The two runs must have exercised every layer they can reach, or the
	// direction above proves little.
	for _, want := range []taxonomyRow{
		{"blocked(senders)", "span"}, {"link_stall", "instant"}, {"gvt_round", "span"},
		{"tw_link_waits", "metric"}, {"comm_inflight", "metric"}, {"dist_min_progress", "metric"},
	} {
		if !seen[want] {
			t.Errorf("neither run emitted %s %q", want.kind, want.name)
		}
	}
	for _, row := range statSeries {
		if !reported[taxonomyRow{row.name, "metric"}] {
			t.Errorf("the coordinator's registry holds no %q", row.name)
		}
	}

	var src strings.Builder
	for _, root := range []string{filepath.Join("..", "..", "internal"), filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			b, err := os.ReadFile(path)
			src.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		literal := `"` + strings.TrimPrefix(r.name, policyPrefix) + `"`
		if !strings.Contains(src.String(), literal) {
			t.Errorf("taxonomy lists %s %q, but no non-test source mentions %s", r.kind, r.name, literal)
		}
	}
}
