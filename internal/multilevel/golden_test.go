package multilevel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// goldenDigests pins the partition every engine produces on the
// smoke-size canonical circuits at b=10, seed 1: sha256 (first 8 bytes)
// of GateParts as little-endian int32s. The multiway, multiway-gain and
// nlevel rows were recorded at the commit before PR 16 touched any refiner
// and have not moved since; the flat rows were re-recorded in PR 18, when
// the baseline moved onto the n-level skeleton (its coarsening and initial
// partitions changed; the pair pass did not). A mismatch means the
// partitioners' behaviour drifted — a changed tie-break, feasibility
// check, pass rule or random-stream draw — not that a number got better or
// worse. Update a row only together with a CHANGES.md line saying why the
// partition moved.
var goldenDigests = map[string]string{
	"viterbi/k2/multiway":         "b9aac3a4cb5fe590",
	"viterbi/k2/multiway-gain":    "b9aac3a4cb5fe590",
	"viterbi/k2/flat":             "297254648c14bbda",
	"viterbi/k2/nlevel":           "fc738de3ea5164cd",
	"viterbi/k4/multiway":         "52f84d58c8e45c80",
	"viterbi/k4/multiway-gain":    "405d349fbd4dc1e7",
	"viterbi/k4/flat":             "7abe5e217b3ee116",
	"viterbi/k4/nlevel":           "def0e45cd7f7ca68",
	"viterbi/k8/multiway":         "89c60866a71e5429",
	"viterbi/k8/multiway-gain":    "628e973a3c658648",
	"viterbi/k8/flat":             "2a95311f506081e6",
	"viterbi/k8/nlevel":           "03cd609e5ec53d6b",
	"fir/k2/multiway":             "a88a012819bc2a85",
	"fir/k2/multiway-gain":        "a88a012819bc2a85",
	"fir/k2/flat":                 "d28b79ef5768cb4a",
	"fir/k2/nlevel":               "d8b9ec5886e11fe0",
	"fir/k4/multiway":             "22d5952a7da05522",
	"fir/k4/multiway-gain":        "a6efdff88309fd97",
	"fir/k4/flat":                 "1bb107eded2a6adb",
	"fir/k4/nlevel":               "63e501517f3dc2a7",
	"fir/k8/multiway":             "e1c5494ef7e81922",
	"fir/k8/multiway-gain":        "0c49944d8b471047",
	"fir/k8/flat":                 "cf7bb43b243edf7e",
	"fir/k8/nlevel":               "b592308b39a3232b",
	"multiplier/k2/multiway":      "1648098bd8d74f0a",
	"multiplier/k2/multiway-gain": "1648098bd8d74f0a",
	"multiplier/k2/flat":          "a3f451edb6bd2c63",
	"multiplier/k2/nlevel":        "aeb6105ef4b1b74f",
	"multiplier/k4/multiway":      "b6ac9024e787de46",
	"multiplier/k4/multiway-gain": "ef86bd296b5bdad4",
	"multiplier/k4/flat":          "59949c62f7bdbd04",
	"multiplier/k4/nlevel":        "d6e4c48da9d23c50",
	"multiplier/k8/multiway":      "6e6e04f7e574d7b2",
	"multiplier/k8/multiway-gain": "7aad0fa8ce4af244",
	"multiplier/k8/flat":          "109b2271a8626088",
	"multiplier/k8/nlevel":        "109b2271a8626088",
	"soc/k2/multiway":             "82cd58d5a02118ef",
	"soc/k2/multiway-gain":        "82cd58d5a02118ef",
	"soc/k2/flat":                 "82cd58d5a02118ef",
	"soc/k2/nlevel":               "82cd58d5a02118ef",
	"soc/k4/multiway":             "3158adb1826b59c8",
	"soc/k4/multiway-gain":        "3158adb1826b59c8",
	"soc/k4/flat":                 "d7182ef48db26a9e",
	"soc/k4/nlevel":               "3c6a8f222be19ab4",
	"soc/k8/multiway":             "7ff7e170652f0f03",
	"soc/k8/multiway-gain":        "36ced5be4fb71b8d",
	"soc/k8/flat":                 "93fe8c69670ef3bd",
	"soc/k8/nlevel":               "b0d604aea44b9fdb",
}

func gatePartsDigest(parts []int32) string {
	buf := make([]byte, 4*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// TestGoldenPartitionDigests runs the design-driven partitioner (random
// and gain-based pairing) and the multilevel skeleton under its level
// (flat baseline) and n-level policies over the canonical circuits ×
// k ∈ {2,4,8} and compares each GateParts digest with the recorded one.
func TestGoldenPartitionDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep in -short mode")
	}
	seen := 0
	for _, w := range canonicalWorkloads(t) {
		for _, k := range []int{2, 4, 8} {
			multiway := func(strategy partition.PairingStrategy) func() ([]int32, error) {
				return func() ([]int32, error) {
					res, err := partition.Multiway(w.design, partition.Options{K: k, B: 10, Seed: 1, Strategy: strategy})
					if err != nil {
						return nil, err
					}
					return res.GateParts, nil
				}
			}
			multilevel := func(engine func(*hypergraph.H, Options) (*Result, error)) func() ([]int32, error) {
				return func() ([]int32, error) {
					res, err := engine(w.flat, Options{K: k, B: 10, Seed: 1, Workers: 1})
					if err != nil {
						return nil, err
					}
					return res.GateParts, nil
				}
			}
			engines := []struct {
				name string
				run  func() ([]int32, error)
			}{
				{"multiway", multiway(partition.PairRandom)},
				{"multiway-gain", multiway(partition.PairGainBased)},
				{"flat", multilevel(Partition)},
				{"nlevel", multilevel(PartitionN)},
			}
			for _, e := range engines {
				key := fmt.Sprintf("%s/k%d/%s", w.name, k, e.name)
				parts, err := e.run()
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				want, ok := goldenDigests[key]
				if !ok {
					t.Errorf("%s: no recorded digest", key)
					continue
				}
				seen++
				if got := gatePartsDigest(parts); got != want {
					t.Errorf("%s: digest %s, recorded %s", key, got, want)
				}
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("compared %d digests, table holds %d", seen, len(goldenDigests))
	}
}
