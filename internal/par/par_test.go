package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce: for every (n, workers) shape — no work,
// workers resolved from GOMAXPROCS, more workers than indices, and a pool
// smaller than n — each index runs exactly once and all have returned
// when Each does. Run under -race, the counters also show the calls
// publish their writes to the caller.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 0}, {0, 4}, {1, 0}, {5, -3}, {3, 16}, {100, 1}, {100, 3}, {1000, 0},
	} {
		hits := make([]int32, tc.n)
		plain := make([]int, tc.n) // written without atomics: -race checks the hand-off
		Each(tc.n, tc.workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
			plain[i] = i + 1
		})
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, hits[i])
			}
			if plain[i] != i+1 {
				t.Fatalf("n=%d workers=%d: index %d's write not visible after Each", tc.n, tc.workers, i)
			}
		}
	}
}

// TestEachOneWorkerIsInOrderOnCaller: at one worker the calls come in
// index order and start no goroutine.
func TestEachOneWorkerIsInOrderOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	Each(50, 1, func(i int) {
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("call %d: %d goroutines, %d before Each", i, n, before)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("call %d ran index %d", i, v)
		}
	}
	if len(order) != 50 {
		t.Fatalf("%d calls, want 50", len(order))
	}
}

// TestEachBoundsConcurrency: no more than workers calls are in flight at
// once, and with workers ≤ 0 no more than GOMAXPROCS.
func TestEachBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{2, 3, 0} {
		limit := workers
		if limit <= 0 {
			limit = runtime.GOMAXPROCS(0)
		}
		var inFlight, peak atomic.Int32
		Each(200, workers, func(int) {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			inFlight.Add(-1)
		})
		if p := int(peak.Load()); p > limit {
			t.Errorf("workers=%d: %d calls in flight, limit %d", workers, p, limit)
		}
	}
}
