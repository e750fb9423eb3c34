package diag

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/networksynth/cold/internal/telemetry"
)

// TestServeDebugRoutes: the diagnostics listener mounts pprof and nothing
// else from the default mux — /debug/vars (expvar) is not a surface.
func TestServeDebugRoutes(t *testing.T) {
	addr, shutdown, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/pprof/cmdline": http.StatusOK,
		"/debug/vars":          http.StatusNotFound,
		"/metrics":             http.StatusNotFound, // no registry given
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServeMetrics checks that a registry handed to Serve is exposed as
// GET /metrics in valid, lintable Prometheus text format with the build
// identity and runtime families present.
func TestServeMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterBuildInfo(reg)
	RegisterRuntime(reg)
	var c telemetry.Counter
	c.Add(3)
	reg.Counter("cold_test_requests_total", "Test counter.", &c)

	addr, shutdown, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.LintExposition(body); err != nil {
		t.Errorf("/metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{"cold_build_info{", "cold_uptime_seconds ", "cold_go_goroutines ", "cold_test_requests_total 3"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentScrape hammers a histogram with observations during live
// /metrics scrapes — every scrape must lint clean, never a torn snapshot
// (run under -race in `make check`).
func TestConcurrentScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := telemetry.NewHistogram([]float64{1, 10, 100})
	reg.Histogram("cold_test_sizes", "Test histogram.", h)

	addr, shutdown, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown() //nolint:errcheck

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // observer: keeps the histogram moving during scrapes
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i % 200))
			}
		}
	}()

	for i := 0; i < 40; i++ {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if err := telemetry.LintExposition(body); err != nil {
			t.Fatalf("scrape %d fails lint: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestProcessInfo(t *testing.T) {
	info := ProcessInfo()
	if info.GoVersion == "" {
		t.Error("empty GoVersion")
	}
	if info.Version == "" {
		t.Error("empty Version")
	}
	if info.Start.IsZero() {
		t.Error("zero Start")
	}
	if Uptime() <= 0 {
		t.Error("non-positive uptime")
	}
}
