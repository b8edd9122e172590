package timewarp

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// countingVectors is sim.RandomVectors that counts its calls.
type countingVectors struct {
	sim.RandomVectors
	calls atomic.Uint64
}

func (c *countingVectors) Vector(cycle uint64, buf []bool) {
	c.calls.Add(1)
	c.RandomVectors.Vector(cycle, buf)
}

// TestStimulusTableIsTheSourceBitForBit: at every width around the word
// boundaries, across a chunk boundary, a row unpacks to exactly the vector
// the source generates for that cycle, and reading the table a second time
// does not ask the source again.
func TestStimulusTableIsTheSourceBitForBit(t *testing.T) {
	const cycles = stimChunkRows + 40
	for _, width := range []int{0, 1, 3, 63, 64, 65, 130} {
		src := &countingVectors{RandomVectors: sim.RandomVectors{Seed: int64(width) + 1}}
		tab := newStimulus(src, width, cycles)
		scratch, want := make([]bool, width), make([]bool, width)
		for pass := 0; pass < 2; pass++ {
			for cyc := uint64(0); cyc < cycles; cyc++ {
				row := tab.row(cyc, scratch)
				src.RandomVectors.Vector(cyc, want)
				for i, w := range want {
					if got := row[i/64].Load()>>(uint(i)%64)&1 != 0; got != w {
						t.Fatalf("width %d, pass %d, cycle %d: bit %d is %v in the table, %v from the source", width, pass, cyc, i, got, w)
					}
				}
			}
		}
		if got := src.calls.Load(); got != cycles {
			t.Errorf("width %d: the source ran %d times for %d cycles read twice", width, got, cycles)
		}
	}
}

// TestStimulusTableSharedByClusters reads one table from several goroutines
// at once, the way a host's clusters do, each walking the cycles in its own
// order. Every reader must see the source's bits; the source runs at least
// once per cycle and — two readers meeting on an unfilled row both fill it
// — at most once per cycle per reader. Under -race this is the check that
// the publication is ordered.
func TestStimulusTableSharedByClusters(t *testing.T) {
	const cycles, width, readers = 3 * stimChunkRows, 70, 4
	src := &countingVectors{RandomVectors: sim.RandomVectors{Seed: 9}}
	tab := newStimulus(src, width, cycles)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			scratch, want := make([]bool, width), make([]bool, width)
			for i := uint64(0); i < cycles; i++ {
				cyc := i
				if r%2 == 1 {
					cyc = cycles - 1 - i
				}
				row := tab.row(cyc, scratch)
				src.RandomVectors.Vector(cyc, want)
				for b, w := range want {
					if got := row[b/64].Load()>>(uint(b)%64)&1 != 0; got != w {
						t.Errorf("reader %d, cycle %d: bit %d is %v in the table, %v from the source", r, cyc, b, got, w)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got := src.calls.Load(); got < cycles || got > readers*cycles {
		t.Errorf("the source ran %d times for %d cycles and %d readers", got, cycles, readers)
	}
	t.Logf("%d source calls for %d cycles read by %d goroutines", src.calls.Load(), cycles, readers)
}
