package serve

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// TestCPUProfileCarriesLabels takes a short CPU profile from
// /debug/pprof/profile while goroutines labeled via profile.Do burn CPU
// and /metrics is being scraped concurrently. The decoded profile must
// carry the label keys, proving /debug/pprof attribution works alongside
// a live exposition scrape (and, under -race, that the paths are clean).
func TestCPUProfileCarriesLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("takes ~1s of CPU profiling")
	}
	o := obs.New(obs.Options{})
	s := startTestServer(t, Options{Obs: o})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sink atomic.Uint64
	for c := int32(0); c < 2; c++ {
		wg.Add(1)
		go func(c int32) {
			defer wg.Done()
			profile.Do("tw", c, "sim", func() {
				x := uint64(c)
				for {
					select {
					case <-stop:
						sink.Add(x)
						return
					default:
						x = x*6364136223846793005 + 1442695040888963407
					}
				}
			})
		}(c)
	}
	defer func() { close(stop); wg.Wait() }()

	// Concurrent scrape pressure against the same observer.
	scrapeDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-scrapeDone:
				return
			default:
			}
			resp, err := http.Get("http://" + s.Addr() + "/metrics")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Also record spans while profiling runs.
			t0 := o.Start()
			o.Span(obs.TrackKernel, "scrape", t0)
			time.Sleep(time.Millisecond)
		}
	}()
	defer close(scrapeDone)

	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatalf("profile request: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read profile: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d: %s", resp.StatusCode, body)
	}

	// The pprof protobuf is gzipped; its string table holds label keys and
	// values as plain bytes, so containment checks need no proto decoder.
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("profile not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip profile: %v", err)
	}
	for _, want := range []string{"cluster", "phase", "mode", "sim"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("decoded profile missing label string %q", want)
		}
	}
	// The scrape loop ran alongside the profile and recorded its spans.
	if evs, _ := o.Events(); len(evs) == 0 {
		t.Error("no scrape spans recorded during profiling")
	}
}
