package timewarp

import (
	"testing"

	"repro/internal/partition"
)

// TestDifferentialWorkloadsVsSequential pins the Time Warp kernel against
// the sequential reference on every deterministic workload family at
// k ∈ {2, 4} over design-driven partitions — the always-on tier-1 version
// of the fuzz harness's differential check. Any kernel or partitioner
// regression that changes committed waveforms fails here without needing
// a fuzz campaign.
func TestDifferentialWorkloadsVsSequential(t *testing.T) {
	for _, tc := range distWorkloads() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ed, err := tc.c.Elaborate()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 4} {
				res, err := partition.Multiway(ed, partition.Options{
					K: k, B: 10, Seed: 17, Restarts: 2,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				st := runBoth(t, ed, res.GateParts, k, tc.cycles, 29)
				t.Logf("%s k=%d: msgs=%d rollbacks=%d maxStragglerDepth=%d",
					tc.name, k, st.Messages, st.Rollbacks, st.MaxStragglerDepth)
			}
		})
	}
}
