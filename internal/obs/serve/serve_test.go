package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func get(t *testing.T, s *Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, string(body)
}

func testObserver() *obs.Observer {
	o := obs.New(obs.Options{})
	o.Registry().Counter("events_total", "events processed").Add(42)
	o.Registry().Gauge("gvt_cycles", "current gvt").Set(7)
	o.Registry().Gauge("rollback_depth", "rollback depth", obs.L("cluster", 0)).Set(2)
	return o
}

// TestMetricsConformance scrapes /metrics and validates every line of
// the exposition against the Prometheus 0.0.4 text format.
func TestMetricsConformance(t *testing.T) {
	s := startTestServer(t, Options{Obs: testObserver()})
	resp, body := get(t, s, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promContentType)
	}
	n, err := obs.ValidatePrometheusText([]byte(body))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if n == 0 {
		t.Fatal("exposition has no samples")
	}
	for _, want := range []string{"# TYPE events_total counter", "# HELP events_total", `rollback_depth{cluster="0"} 2`} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzFlips(t *testing.T) {
	var wedged atomic.Bool
	s := startTestServer(t, Options{
		Health: func() (bool, string) {
			if wedged.Load() {
				return false, "stalled: no progress"
			}
			return true, "advancing"
		},
	})
	resp, body := get(t, s, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "advancing") {
		t.Fatalf("healthy: status=%d body=%q", resp.StatusCode, body)
	}
	wedged.Store(true)
	resp, body = get(t, s, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "stalled") {
		t.Fatalf("wedged: status=%d body=%q", resp.StatusCode, body)
	}
}

func TestStatusJSON(t *testing.T) {
	s := startTestServer(t, Options{
		Obs:    testObserver(),
		Status: func() any { return map[string]uint64{"gvt": 9} },
	})
	resp, body := get(t, s, "/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var st struct {
		UptimeUS int64             `json:"uptime_us"`
		Healthy  bool              `json:"healthy"`
		Health   string            `json:"health"`
		Samples  []obs.Sample      `json:"samples"`
		App      map[string]uint64 `json:"app"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if !st.Healthy || len(st.Samples) == 0 || st.App["gvt"] != 9 {
		t.Errorf("status = %+v", st)
	}
}

func TestIndexAndPprof(t *testing.T) {
	s := startTestServer(t, Options{})
	if resp, body := get(t, s, "/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status=%d body=%q", resp.StatusCode, body)
	}
	if resp, _ := get(t, s, "/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	if resp, _ := get(t, s, "/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

// TestConcurrentScrapes hammers the endpoints while writers bump the
// registry — the race detector is the assertion.
func TestConcurrentScrapes(t *testing.T) {
	o := obs.New(obs.Options{})
	ctr := o.Registry().Counter("spin_total", "spins")
	s := startTestServer(t, Options{
		Obs:    o,
		Health: func() (bool, string) { return true, "ok" },
		Status: func() any { return struct{ N int }{1} },
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ctr.Add(1)
					o.Count(0, "tick", 1)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		path := []string{"/metrics", "/status", "/healthz"}[i%3]
		resp, body := get(t, s, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d: %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" {
			if _, err := obs.ValidatePrometheusText([]byte(body)); err != nil {
				t.Fatalf("mid-run exposition invalid: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestStartBadAddr(t *testing.T) {
	if _, err := Start("256.0.0.1:bad", Options{}); err == nil {
		t.Fatal("Start on bad addr succeeded")
	}
}
