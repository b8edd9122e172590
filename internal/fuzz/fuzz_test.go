package fuzz

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/timewarp"
)

const testStall = 30 * time.Second

// Every kernel run this package's tests make — the chaos campaign, the
// fault self-tests, the shrinker — verifies the clusters' input-queue order
// after each cycle; a violation fails the run like any kernel error.
func init() { timewarp.CheckInvariants = true }

func TestSpecDerivationDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := NewSpec(seed, true), NewSpec(seed, true)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d derived two different specs:\n%+v\n%+v", seed, a, b)
		}
		if a.Chaos == nil {
			t.Fatalf("seed %d: chaos requested but not derived", seed)
		}
		if NewSpec(seed, false).Chaos != nil {
			t.Fatalf("seed %d: chaos derived despite chaos=false", seed)
		}
	}
}

// TestFuzzShort is the CI tier: a fixed seed window of full differential
// runs under chaos. Zero mismatches, zero invariant violations, and the
// adversarial bar must hold.
func TestFuzzShort(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 8
	}
	rep := Campaign(Config{
		Seed:                1,
		Runs:                runs,
		Chaos:               true,
		MinLinkWaitFraction: DefaultMinLinkWaitFraction,
		StallTimeout:        testStall,
	})
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
}

// adversarialSpec is a hand-built worst case: random gate scatter over a
// big-enough LFSR with chaos stalls — heavy cross-cluster traffic, so
// injected kernel faults reliably surface as waveform mismatches.
func adversarialSpec(seed int64) Spec {
	return Spec{
		Seed: seed, Family: "lfsr", GenSeed: seed, Size: 3,
		K: 3, Partition: "scatter", B: 10,
		Cycles: 150,
		Chaos: &comm.ChaosConfig{
			Seed: seed, MaxDelay: 200 * time.Microsecond,
			StallEvery: 16, StallFor: 2 * time.Millisecond,
		},
	}
}

// TestHarnessCatchesCorruptedEvents proves the differential comparison
// detects silent data corruption, and that the failure replays from the
// same spec — the property the whole harness exists for.
func TestHarnessCatchesCorruptedEvents(t *testing.T) {
	faults := &timewarp.FaultConfig{CorruptEveryN: 2}
	spec := adversarialSpec(7)
	res := Execute(spec, faults, testStall)
	if !res.Failed() {
		t.Fatal("corrupting every 2nd inter-cluster event was not detected")
	}
	// Replay: the same spec with the same fault must fail again.
	replay := Execute(spec, faults, testStall)
	if !replay.Failed() {
		t.Fatalf("failure did not replay (original: %s)", res.Failure())
	}
	t.Logf("caught: %s", res.Failure())
}

// TestHarnessCatchesSkippedSenderWait: a cluster that runs its cycle
// without waiting for its senders' watermarks computes on whatever its
// mailbox holds; under chaos the events it skipped arrive after it, and
// the harness must notice — as a straggler error or a waveform mismatch —
// and the failure must replay from the same seed.
func TestHarnessCatchesSkippedSenderWait(t *testing.T) {
	faults := &timewarp.FaultConfig{SkipSenderWait: true}
	for seed := int64(1); seed <= 5; seed++ {
		spec := adversarialSpec(seed)
		res := Execute(spec, faults, testStall)
		if !res.Failed() {
			continue
		}
		if replay := Execute(spec, faults, testStall); !replay.Failed() {
			t.Fatalf("failure at seed %d did not replay (original: %s)", seed, res.Failure())
		}
		if healthy := Execute(spec, nil, testStall); healthy.Failed() {
			t.Fatalf("seed %d fails without the fault too: %s", seed, healthy.Failure())
		}
		t.Logf("caught at seed %d: %s", seed, res.Failure())
		return
	}
	t.Fatal("skipping the sender wait was never detected across 5 adversarial seeds")
}

// TestShrinkerMinimisesFailure runs the shrinker on an injected failure
// and checks the result is no bigger than the original, still fails, and
// renders as a pasteable Go test.
func TestShrinkerMinimisesFailure(t *testing.T) {
	faults := &timewarp.FaultConfig{CorruptEveryN: 2}
	orig := adversarialSpec(11)
	first := Execute(orig, faults, testStall)
	if !first.Failed() {
		t.Fatal("setup: adversarial spec with corruption fault did not fail")
	}
	min, res := Shrink(orig, faults, testStall)
	if !res.Failed() {
		t.Fatal("shrinker returned a passing spec")
	}
	if min.Cycles > orig.Cycles || min.Size > orig.Size || min.K > orig.K {
		t.Fatalf("shrinker grew the spec: %+v -> %+v", orig, min)
	}
	if min.Cycles == orig.Cycles && min.Size == orig.Size && min.K == orig.K && min.Chaos != nil {
		t.Logf("note: no dimension shrank (failure needs the full spec)")
	}
	snippet := ReproSnippet(min, res.Failure())
	for _, want := range []string{"func TestFuzzReproSeed11", "fuzz.Spec{", "fuzz.Execute"} {
		if !strings.Contains(snippet, want) {
			t.Fatalf("repro snippet missing %q:\n%s", want, snippet)
		}
	}
	t.Logf("minimal: family=%s size=%d k=%d cycles=%d chaos=%v\n%s",
		min.Family, min.Size, min.K, min.Cycles, min.Chaos != nil, snippet)
}

// TestPartitionerFallbackRecorded: a K larger than a tiny circuit can
// support must fall back to scatter and say so, never crash.
func TestPartitionerFallbackRecorded(t *testing.T) {
	spec := Spec{
		Seed: 1, Family: "lfsr", GenSeed: 1, Size: 1,
		K: 6, Partition: "multiway", B: 2.5,
		Cycles: 20,
	}
	res := Execute(spec, nil, testStall)
	if res.Err != nil {
		t.Fatalf("tiny-circuit spec errored: %v", res.Err)
	}
	if res.Failed() {
		t.Fatalf("tiny-circuit spec failed: %s", res.Failure())
	}
	t.Logf("partitioner used: %s", res.Partitioner)
}

// TestCampaignWritesFailingSeedTrace: with TraceDir set and an injected
// fault, the campaign must write one decodable Chrome trace per failing
// seed — the CI post-mortem artifact.
func TestCampaignWritesFailingSeedTrace(t *testing.T) {
	dir := t.TempDir()
	rep := Campaign(Config{
		Seed:         7,
		Runs:         2,
		Chaos:        true,
		StallTimeout: testStall,
		Faults:       &timewarp.FaultConfig{CorruptEveryN: 2},
		TraceDir:     dir,
	})
	if len(rep.Failures) == 0 {
		t.Skip("injected corruption fault produced no failure in this seed window")
	}
	if len(rep.TracePaths) != len(rep.Failures) {
		t.Fatalf("wrote %d traces for %d failures", len(rep.TracePaths), len(rep.Failures))
	}
	for _, path := range rep.TracePaths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := obs.DecodeChromeTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s does not decode: %v", path, err)
		}
		if len(d.Events) == 0 {
			t.Fatalf("%s is an empty trace", path)
		}
	}
}
