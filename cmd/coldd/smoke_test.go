package main

// End-to-end smokes `make coldd-smoke` runs in CI, against the real built
// binary:
//
// TestColddSmoke starts coldd on a free port with a fresh cache, POSTs one
// tiny config twice, and asserts the second response was served from the
// artifact store (cache-hit counter up, generation counter still 1 on
// /metrics) with a byte-identical body. It then sends SIGTERM and asserts
// the same clean drain SIGINT gets ("coldd: shut down" on stderr, exit 0).
//
// TestColddRestartSmoke is the crash-recovery leg: it SIGKILLs a daemon
// mid-ensemble (after a checkpoint file appeared in the cache), restarts it
// over the same cache directory, and asserts the re-request resumes from
// the checkpoint (resume counters up in /metrics) and returns bytes
// identical to an uninterrupted in-process run.

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/telemetry"
)

// buildColdd compiles the real coldd binary into dir.
func buildColdd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "coldd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building coldd: %v", err)
	}
	return bin
}

// lockedBuffer collects the daemon's stderr; exec.Cmd copies into it from
// its own goroutine while the test reads it, so writes are locked.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running coldd process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  *lockedBuffer
	exited  chan struct{}
	exitErr error
}

// startColdd launches bin and waits for its listen banner ("coldd:
// listening on http://ADDR ...") to learn the picked port.
func startColdd(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{stderr: &lockedBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.stderr // exec's copier ends before Wait returns: no lost output
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exitErr = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // no-op after clean shutdown
		<-d.exited
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		out := d.stderr.String()
		if i := strings.Index(out, "listening on http://"); i >= 0 {
			rest := out[i+len("listening on http://"):]
			d.base = "http://" + strings.Fields(rest)[0]
			return d
		}
		select {
		case <-d.exited:
			t.Fatalf("daemon exited before listening: %v\n%s", d.exitErr, out)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestColddSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildColdd(t, dir)
	d := startColdd(t, bin,
		"-addr", "localhost:0",
		"-cache", filepath.Join(dir, "cache"),
		"-jobs", "1",
		"-parallel", "1",
		"-log-format", "json",
		"-trace-dir", filepath.Join(dir, "traces"),
	)

	body := `{"config":{"NumPoPs":8,"Seed":42,"Optimizer":{"PopulationSize":8,"Generations":4}},"count":2}`
	postOnce := func(wantCache string) []byte {
		resp, err := http.Post(d.base+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cold-Cache"); got != wantCache {
			t.Fatalf("X-Cold-Cache = %q, want %q", got, wantCache)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := postOnce("miss")
	second := postOnce("hit")
	if !bytes.Equal(first, second) {
		t.Fatal("identical POSTs must return byte-identical bodies")
	}

	m := scrapeMetrics(t, d.base)
	if h, g := m["cold_artifact_cache_hits_total"], m["cold_generation_jobs_total"]; h != 1 || g != 1 {
		t.Fatalf("cache hits=%v generations=%v, want 1 and 1 (second POST must be a pure cache hit)", h, g)
	}
	for series, want := range map[string]float64{
		"cold_http_requests_total": 2,
		"cold_runs_total":          1,
		"cold_store_partials":      0,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("/metrics %s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/v1/stats":     http.StatusNotFound,
		"/debug/vars":   http.StatusNotFound,
	} {
		resp, err := http.Get(d.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// The generation job must have left exactly one JSONL trace file.
	traces, err := os.ReadDir(filepath.Join(dir, "traces"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Errorf("trace dir has %d files, want 1", len(traces))
	}

	// /healthz reports liveness plus build identity.
	hresp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		GoVersion string `json:"go_version"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.GoVersion == "" {
		t.Fatalf("healthz = %+v, want ok with a go version", health)
	}

	// SIGTERM must drain exactly like SIGINT: clean exit, shutdown banner.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.exitErr != nil {
			t.Fatalf("daemon exited uncleanly on SIGTERM: %v\n%s", d.exitErr, d.stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if out := d.stderr.String(); !strings.Contains(out, "coldd: shut down") {
		t.Fatalf("missing shutdown banner on stderr:\n%s", out)
	}
}

// scrapeMetrics GETs base/metrics, checks it passes the exposition-format
// lint, and parses it.
func scrapeMetrics(t *testing.T, base string) metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := telemetry.LintExposition(body); err != nil {
		t.Fatalf("/metrics fails format lint: %v", err)
	}
	if !bytes.Contains(body, []byte("cold_build_info{")) {
		t.Error("/metrics missing cold_build_info")
	}
	return parseMetrics(t, body)
}

// hasCheckpoint reports whether the cache directory holds a partial
// (".part-") checkpoint file.
func hasCheckpoint(cache string) bool {
	found := false
	filepath.WalkDir(cache, func(path string, e fs.DirEntry, err error) error { //nolint:errcheck
		if err == nil && !e.IsDir() && strings.Contains(e.Name(), ".part-") {
			found = true
		}
		return nil
	})
	return found
}

func TestColddRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildColdd(t, dir)
	cache := filepath.Join(dir, "cache")
	args := []string{
		"-addr", "localhost:0",
		"-cache", cache,
		"-jobs", "1",
		"-parallel", "1",
		"-checkpoint-every", "1",
		"-log-format", "json",
	}
	d1 := startColdd(t, bin, args...)

	// Slow enough per replica (tens of ms) that the SIGKILL below lands
	// mid-ensemble, triggered as soon as the first checkpoint file exists.
	body := `{"config":{"NumPoPs":12,"Seed":77,"Optimizer":{"PopulationSize":24,"Generations":120}},"count":24}`
	go func() {
		resp, err := http.Post(d1.base+"/v1/generate", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(60 * time.Second)
	for !hasCheckpoint(cache) {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint file appeared in %s\n%s", cache, d1.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: simulated crash
		t.Fatal(err)
	}
	<-d1.exited

	// Restart over the same cache; the same request must resume from the
	// checkpoint and return exactly what an uninterrupted run produces.
	d2 := startColdd(t, bin, args...)
	resp, err := http.Post(d2.base+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after restart: %s", resp.StatusCode, got.Bytes())
	}

	cfg := cold.Config{NumPoPs: 12, Seed: 77, Parallelism: 1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 24, Generations: 120}}
	nets, err := cold.GenerateEnsemble(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, nw := range nets {
		b, err := json.Marshal(nw)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("post-restart artifact differs from an uninterrupted run")
	}

	m := scrapeMetrics(t, d2.base)
	if r, rr := m["cold_checkpoint_resumes_total"], m["cold_checkpoint_resumed_replicas_total"]; r < 1 || rr < 1 {
		t.Fatalf("resumes=%v resumed_replicas=%v, want both >= 1", r, rr)
	}
	if p := m["cold_store_partials"]; p != 0 {
		t.Errorf("partials = %v after promotion, want 0", p)
	}

	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d2.exited:
		if d2.exitErr != nil {
			t.Fatalf("restarted daemon exited uncleanly: %v\n%s", d2.exitErr, d2.stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restarted daemon did not shut down on SIGTERM")
	}
}
