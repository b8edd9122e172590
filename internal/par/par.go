// Package par is the one parallel-for of the partitioners and the
// pre-simulation campaign. Callers write each result into a slot indexed
// by i and merge the slots in index order afterwards, so what they return
// does not depend on the worker count or on the order the indices ran in.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i in [0, n), each exactly once, on at most
// workers goroutines (workers ≤ 0 → GOMAXPROCS), and returns when every
// call has returned. With one worker it calls f in index order on the
// caller's goroutine and starts none.
func Each(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}
