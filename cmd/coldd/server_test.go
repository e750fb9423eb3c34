package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/store"
	"github.com/networksynth/cold/internal/telemetry"
)

// newTestServer builds a server over a fresh temp store (or opts.store if
// pre-set) and returns it with a live httptest front end.
func newTestServer(t *testing.T, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	if opts.store == nil {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.store = st
	}
	if opts.jobs == 0 {
		opts.jobs = 1
	}
	if opts.parallel == 0 {
		opts.parallel = 1
	}
	s := newServer(opts)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tinyBody is a fast request: n=8 PoPs, an 8×4 GA.
func tinyBody(seed int64, count int) string {
	return fmt.Sprintf(`{"config":{"NumPoPs":8,"Seed":%d,"Optimizer":{"PopulationSize":8,"Generations":4}},"count":%d}`, seed, count)
}

// slowBody is a request that runs for many seconds if not canceled.
func slowBody(seed int64) string {
	return fmt.Sprintf(`{"config":{"NumPoPs":24,"Seed":%d,"Optimizer":{"PopulationSize":40,"Generations":200000}},"count":1}`, seed)
}

func post(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postSSE POSTs body to base's generate endpoint as an SSE request and
// returns the event stream.
func postSSE(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/generate?stream=sse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d: %s", resp.StatusCode, data)
	}
	return string(data)
}

// sseBody is the event stream that carries the JSONL body jsonl: one
// network event per line, in order, then the done event with the cache
// label.
func sseBody(jsonl []byte, hash string, count int, cache string) string {
	var b strings.Builder
	for _, line := range bytes.SplitAfter(jsonl, []byte("\n")) {
		if len(line) > 0 {
			fmt.Fprintf(&b, "event: network\ndata: %s\n", line)
		}
	}
	fmt.Fprintf(&b, "event: done\ndata: {\"hash\":%q,\"count\":%d,\"cache\":%q}\n\n", hash, count, cache)
	return b.String()
}

// metrics is one /metrics exposition: series ("name" or "name{labels}")
// → value.
type metrics map[string]float64

// parseMetrics reads the `name value` lines of a Prometheus text
// exposition, skipping HELP/TYPE comments.
func parseMetrics(t *testing.T, data []byte) metrics {
	t.Helper()
	m := metrics{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("bad exposition line %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// serverMetrics renders s's GET /metrics body in-process and parses it.
func serverMetrics(t *testing.T, s *server) metrics {
	t.Helper()
	var b bytes.Buffer
	if err := s.reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, b.Bytes())
}

// waitMetrics polls serverMetrics until pred holds or the deadline passes.
func waitMetrics(t *testing.T, s *server, what string, pred func(metrics) bool) metrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := serverMetrics(t, s)
		if pred(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; metrics %v", what, m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGenerateCacheMissThenHit(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})

	first := post(t, ts, tinyBody(1, 3))
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d", first.StatusCode)
	}
	if got := first.Header.Get("X-Cold-Cache"); got != "miss" {
		t.Errorf("first X-Cold-Cache = %q, want miss", got)
	}
	hash := first.Header.Get("X-Cold-Config-Hash")
	if len(hash) != 64 {
		t.Errorf("X-Cold-Config-Hash = %q, want 64 hex chars", hash)
	}
	body1 := readAll(t, first)

	second := post(t, ts, tinyBody(1, 3))
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second POST status %d", second.StatusCode)
	}
	if got := second.Header.Get("X-Cold-Cache"); got != "hit" {
		t.Errorf("second X-Cold-Cache = %q, want hit", got)
	}
	body2 := readAll(t, second)

	if !bytes.Equal(body1, body2) {
		t.Fatal("hit and miss responses must be byte-identical")
	}
	if lines := bytes.Count(body1, []byte("\n")); lines != 3 {
		t.Fatalf("body has %d lines, want 3", lines)
	}

	m := serverMetrics(t, s)
	if g := m["cold_generation_jobs_total"]; g != 1 {
		t.Errorf("generations = %v, want 1 (second request must not invoke the generator)", g)
	}
	if h, mi := m["cold_artifact_cache_hits_total"], m["cold_artifact_cache_misses_total"]; h != 1 || mi != 1 {
		t.Errorf("cache hits/misses = %v/%v, want 1/1", h, mi)
	}
	if p := m["cold_store_puts_total"]; p != 1 {
		t.Errorf("store puts = %v, want 1", p)
	}
}

// TestGenerateMatchesLibrary pins the artifact encoding: the response lines
// are exactly json.Marshal of the networks GenerateEnsemble returns.
func TestGenerateMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	resp := post(t, ts, tinyBody(7, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := readAll(t, resp)

	cfg := cold.Config{NumPoPs: 8, Seed: 7, Parallelism: 1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 8, Generations: 4}}
	nets, err := cold.GenerateEnsemble(cfg, 2)
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
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("response body differs from the library's ensemble")
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{maxCount: 4, maxPoPs: 64})
	cases := []struct {
		name, body string
		status     int
	}{
		{"invalid config", `{"config":{"NumPoPs":0},"count":1}`, http.StatusBadRequest},
		{"bad field error", `{"config":{"NumPoPs":8,"Traffic":{"Kind":1,"ParetoShape":0.5}},"count":1}`, http.StatusBadRequest},
		{"unknown field", `{"config":{"NumPoPs":8,"Bogus":1}}`, http.StatusBadRequest},
		{"malformed json", `{"config":`, http.StatusBadRequest},
		{"negative count", `{"config":{"NumPoPs":8},"count":-2}`, http.StatusBadRequest},
		{"count over limit", `{"config":{"NumPoPs":8},"count":5}`, http.StatusRequestEntityTooLarge},
		{"pops over limit", `{"config":{"NumPoPs":65},"count":1}`, http.StatusRequestEntityTooLarge},
		// Both once passed validation and then panicked the generator
		// goroutine with an out-of-range allocation, killing the daemon.
		{"clusters over pops", `{"config":{"NumPoPs":10,"Locations":{"Kind":1,"Clusters":4611686018427387904}}}`, http.StatusBadRequest},
		{"population over limit", `{"config":{"NumPoPs":10,"Optimizer":{"PopulationSize":4611686018427387904}}}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts, c.body)
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
		})
	}
	if g := serverMetrics(t, s)["cold_generation_jobs_total"]; g != 0 {
		t.Errorf("invalid requests ran %v generations", g)
	}
	// The daemon is still serving.
	resp := post(t, ts, tinyBody(3, 1))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after rejections: status %d: %s", resp.StatusCode, body)
	}
}

// TestOverflowingConfigIs400: a config that passes validation but whose
// every candidate cost overflows once panicked a GA goroutine and killed
// the daemon. It must be answered 400, and the daemon must keep serving.
func TestOverflowingConfigIs400(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	// The second body seeds the GA with the heuristics, where no star has
	// a finite cost.
	for _, opt := range []string{`"PopulationSize":10,"Generations":5`, `"PopulationSize":10,"Generations":5,"SeedWithHeuristics":true`} {
		resp := post(t, ts, `{"config":{"NumPoPs":10,"Seed":1,"Params":{"K0":10,"K1":1,"K2":1e306,"K3":1},"Optimizer":{`+opt+`}}}`)
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", opt, resp.StatusCode, body)
		}
		health, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		health.Body.Close()
		if health.StatusCode != http.StatusOK {
			t.Fatalf("%s: /healthz status %d after the rejection", opt, health.StatusCode)
		}
	}
	resp := post(t, ts, tinyBody(3, 1))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after the rejection: status %d: %s", resp.StatusCode, body)
	}
}

// TestFailedJobFreesQueueBeforeReply: at queue depth 0 a failed job must
// have given back its slot and admission by the time its client reads the
// 400, so a request sent right after the reply is admitted, never 429.
// Each round posts a fresh failing config, then a fresh valid one.
func TestFailedJobFreesQueueBeforeReply(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{jobs: 1, queueDepth: 0})
	for seed := int64(1); seed <= 20; seed++ {
		resp := post(t, ts, fmt.Sprintf(`{"config":{"NumPoPs":10,"Seed":%d,"Params":{"K0":10,"K1":1,"K2":1e306,"K3":1},"Optimizer":{"PopulationSize":10,"Generations":5}}}`, seed))
		if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("round %d: failing job: status %d, want 400: %s", seed, resp.StatusCode, body)
		}
		resp = post(t, ts, tinyBody(seed, 1))
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: request after the failed job: status %d, want 200: %s", seed, resp.StatusCode, body)
		}
	}
}

// TestStalledConnectionsClosed: coldd's HTTP server closes a connection
// whose client stops halfway through its request headers, and a
// keep-alive connection left idle after a response, each once its timeout
// (shortened here) expires.
func TestStalledConnectionsClosed(t *testing.T) {
	s, _ := newTestServer(t, serverOptions{})
	srv := httpServer(s.handler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("server timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const timeout = 200 * time.Millisecond
	srv.ReadHeaderTimeout, srv.IdleTimeout = timeout, timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	for _, c := range []struct{ name, send string }{
		{"half header", "GET /healthz HTTP/1.1\r\nHost: coldd\r\nX-Half: "},
		{"idle keep-alive", "GET /healthz HTTP/1.1\r\nHost: coldd\r\n\r\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := io.WriteString(conn, c.send); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(start.Add(10 * timeout))
			// The server answers the whole request, then closes the idle
			// connection; it closes the half-sent one without a reply.
			r := bufio.NewReader(conn)
			if strings.HasSuffix(c.send, "\r\n\r\n") {
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					t.Fatal(err)
				}
				readAll(t, resp)
				if resp.StatusCode != http.StatusOK || resp.Close {
					t.Fatalf("status %d, close %v: want a kept-alive 200", resp.StatusCode, resp.Close)
				}
			}
			if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
				t.Fatalf("read %q, err %v: want the server to close the connection", rest, err)
			}
			if d := time.Since(start); d < timeout {
				t.Fatalf("closed after %v, before the %v timeout", d, timeout)
			}
		})
	}
}

// TestIgnoredFieldTwinsServeSameBytes: a config and its twin that differ
// only in fields their Kinds ignore share a hash, so each must be served,
// from an empty cache, with the same bytes. The LocFixed twin with
// Aspect -1 was once answered 500 on an empty cache yet 200 from the
// cache once its twin had been served.
func TestIgnoredFieldTwinsServeSameBytes(t *testing.T) {
	for _, c := range []struct{ name, spec, ignored string }{
		{"LocFixed", `"Locations":{"Kind":3%s,"Points":[{"X":0,"Y":0},{"X":1,"Y":0},{"X":0,"Y":1},{"X":1,"Y":1}]}`, `,"Aspect":-1`},
		{"TrafficFixed", `"Traffic":{"Kind":3%s,"Populations":[1,2,3,4]}`, `,"MeanPopulation":-1`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var bodies [2][]byte
			var hashes [2]string
			for i, ignored := range []string{"", c.ignored} {
				_, ts := newTestServer(t, serverOptions{}) // an empty cache each time
				resp := post(t, ts, `{"config":{"NumPoPs":4,"Seed":1,`+fmt.Sprintf(c.spec, ignored)+
					`,"Optimizer":{"PopulationSize":8,"Generations":4}},"count":2}`)
				bodies[i] = readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, bodies[i])
				}
				if got := resp.Header.Get("X-Cold-Cache"); got != "miss" {
					t.Fatalf("request %d: X-Cold-Cache = %q, want miss", i, got)
				}
				hashes[i] = resp.Header.Get("X-Cold-Config-Hash")
			}
			if hashes[0] != hashes[1] {
				t.Errorf("twin hashes differ: %s vs %s", hashes[0], hashes[1])
			}
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Error("twins with one hash were served different bytes")
			}
		})
	}
}

// TestCancelFreesQueueSlot is the acceptance path: cancelling an in-flight
// request must cancel its generation and free the queue slot for the next
// request, whether the GA or the heuristics that seed it are running.
func TestCancelFreesQueueSlot(t *testing.T) {
	t.Run("GA", func(t *testing.T) { testCancelFreesQueueSlot(t, slowBody(1)) })
	// At n=80 the heuristics alone run for tens of seconds.
	t.Run("heuristics", func(t *testing.T) {
		testCancelFreesQueueSlot(t, `{"config":{"NumPoPs":80,"Seed":1,"Optimizer":{"PopulationSize":10,"Generations":2,"SeedWithHeuristics":true}},"count":1}`)
	})
}

func testCancelFreesQueueSlot(t *testing.T, body string) {
	s, ts := newTestServer(t, serverOptions{jobs: 1, queueDepth: 0})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the generation actually start, then abandon it.
	waitMetrics(t, s, "slow job to start", func(m metrics) bool { return m["cold_generation_jobs_total"] == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request should error")
	}
	waitMetrics(t, s, "queue slot to free", func(m metrics) bool {
		return m["cold_queue_depth"] == 0 && m["cold_jobs_canceled_total"] >= 1
	})

	// The freed slot must serve the next request.
	resp := post(t, ts, tinyBody(2, 1))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after cancel: status %d, body %s", resp.StatusCode, body)
	}
}

func TestQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{jobs: 1, queueDepth: 0})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", strings.NewReader(slowBody(3)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	waitMetrics(t, s, "slow job to occupy the queue", func(m metrics) bool { return m["cold_queue_depth"] == 1 })

	// A different config (new cache key) finds the queue full.
	resp := post(t, ts, slowBody(4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if f := serverMetrics(t, s)["cold_queue_full_total"]; f != 1 {
		t.Errorf("queue full = %v, want 1", f)
	}
	cancel()
	<-done
}

// TestSingleflightShared: two concurrent identical requests share one
// generation and receive identical bodies.
func TestSingleflightShared(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{jobs: 2})

	body := `{"config":{"NumPoPs":16,"Seed":9,"Optimizer":{"PopulationSize":20,"Generations":300}},"count":2}`
	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	fire := func() {
		resp := post(t, ts, body)
		results <- result{resp.StatusCode, readAll(t, resp)}
	}
	go fire()
	// Wait until the first request's job is in flight, then fire the twin.
	waitMetrics(t, s, "leader job to start", func(m metrics) bool { return m["cold_artifact_cache_misses_total"] == 1 })
	go fire()

	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d, %d", a.status, b.status)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatal("single-flighted responses must be byte-identical")
	}
	m := serverMetrics(t, s)
	if g := m["cold_generation_jobs_total"]; g != 1 {
		t.Errorf("generations = %v, want 1", g)
	}
	if sh, h := m["cold_singleflight_shared_total"], m["cold_artifact_cache_hits_total"]; sh+h != 1 {
		// The twin either boarded the in-flight job or (if the leader
		// finished first) hit the store; both mean one generation.
		t.Errorf("shared=%v hits=%v, want exactly one of them = 1", sh, h)
	}
}

func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	// Round 0 selects SSE via ?stream=sse, round 1 via Accept content
	// negotiation; both must work, on miss and hit paths respectively.
	for i, wantCache := range []string{"miss", "hit"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate?stream=sse", strings.NewReader(tinyBody(5, 2)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if i == 1 {
			req.URL.RawQuery = ""
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("round %d: Content-Type %q", i, ct)
		}
		body := string(readAll(t, resp))
		if got := strings.Count(body, "event: network\n"); got != 2 {
			t.Fatalf("round %d: %d network events, want 2:\n%s", i, got, body)
		}
		if !strings.Contains(body, "event: done\n") {
			t.Fatalf("round %d: missing done event:\n%s", i, body)
		}
		if !strings.Contains(body, fmt.Sprintf("%q", wantCache)) {
			t.Fatalf("round %d: done event should report cache %q:\n%s", i, wantCache, body)
		}
	}
}

// TestSSEIsJSONLLines: a miss and a hit both stream exactly the JSONL
// body's lines as SSE network events, then the done event with the right
// cache label.
func TestSSEIsJSONLLines(t *testing.T) {
	body := tinyBody(6, 3)
	_, ref := newTestServer(t, serverOptions{})
	resp := post(t, ref, body)
	jsonl := readAll(t, resp)
	hash := resp.Header.Get("X-Cold-Config-Hash")
	_, ts := newTestServer(t, serverOptions{})
	for _, cache := range []string{"miss", "hit"} {
		if got, want := postSSE(t, ts.URL, body), sseBody(jsonl, hash, 3, cache); got != want {
			t.Fatalf("%s: SSE body\n%s\nwant\n%s", cache, got, want)
		}
	}
}

// TestHealthAndStatsEndpoints pins the route table: /healthz, /metrics and
// pprof are served; /v1/stats and expvar's /debug/vars are not.
func TestHealthAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	for path, want := range map[string]int{
		"/healthz":      http.StatusOK,
		"/metrics":      http.StatusOK,
		"/debug/pprof/": http.StatusOK,
		"/v1/stats":     http.StatusNotFound,
		"/debug/vars":   http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestMetricsEndpoint: GET /metrics serves lintable Prometheus text with
// the service, engine, store and build-identity families all present.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	readAll(t, post(t, ts, tinyBody(11, 1))) // populate the counters

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := readAll(t, resp)
	if err := telemetry.LintExposition(body); err != nil {
		t.Fatalf("/metrics fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"cold_http_requests_total 1",
		"cold_artifact_cache_misses_total 1",
		"cold_generation_jobs_total 1",
		"cold_runs_total 1",
		"cold_store_puts_total 1",
		"cold_http_request_duration_seconds_bucket{le=\"+Inf\",route=\"POST /v1/generate\",status=\"200\"}",
		"cold_queue_wait_seconds_count 1",
		"cold_store_get_duration_seconds_count",
		"cold_build_info{",
		"cold_go_goroutines ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthzBuildInfo: /healthz reports liveness plus the build identity
// and a positive uptime.
func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" || h.Version == "" {
		t.Errorf("missing build identity: %+v", h)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", h.UptimeSeconds)
	}
}

// TestRequestIDTraceCorrelation is the trace-correlation acceptance path:
// a generate request's X-Cold-Request-Id names the job's JSONL trace file,
// and the trace's run_start/run_end events carry that ID as run_id.
func TestRequestIDTraceCorrelation(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serverOptions{traceDir: dir})

	resp := post(t, ts, tinyBody(21, 2))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Cold-Request-Id")
	if len(reqID) != 16 {
		t.Fatalf("X-Cold-Request-Id = %q, want 16 hex chars", reqID)
	}

	tracePath := filepath.Join(dir, reqID+".jsonl")
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var runStarts, runEnds int
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev struct {
			V     int    `json:"v"`
			Event string `json:"event"`
			RunID string `json:"run_id"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if ev.V != cold.TraceSchemaVersion {
			t.Fatalf("trace line v=%d, want %d", ev.V, cold.TraceSchemaVersion)
		}
		switch ev.Event {
		case "run_start":
			runStarts++
			if ev.RunID != reqID {
				t.Errorf("run_start run_id = %q, want %q", ev.RunID, reqID)
			}
		case "run_end":
			runEnds++
			if ev.RunID != reqID {
				t.Errorf("run_end run_id = %q, want %q", ev.RunID, reqID)
			}
		}
	}
	if runStarts != 1 || runEnds != 1 {
		t.Fatalf("trace has %d run_start / %d run_end events, want 1/1", runStarts, runEnds)
	}

	// A cache hit must not write a second trace (no generation ran).
	readAll(t, post(t, ts, tinyBody(21, 2)))
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("trace dir has %d files after a cache hit, want 1", len(files))
	}
}

// TestResumeFromCheckpoint is the crash-recovery acceptance path: a job
// whose key has a valid partial checkpoint replays it and generates only
// the remaining replicas, and the response is byte-identical to an
// uninterrupted run. With checkpointEvery 0 the job writes no checkpoints
// but still resumes from one left in the store.
func TestResumeFromCheckpoint(t *testing.T) {
	// The library reference for tinyBody(101, 4).
	cfg := cold.Config{NumPoPs: 8, Seed: 101, Parallelism: 1,
		Optimizer: cold.OptimizerSpec{PopulationSize: 8, Generations: 4}}
	nets, err := cold.GenerateEnsemble(cfg, 4)
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
	hash, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	key := artifactKey(hash, 4)
	// The checkpoint a crashed daemon would have left: the first 2 of 4
	// artifact lines.
	lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))
	prefix := append(append([]byte{}, lines[0]...), lines[1]...)

	for _, every := range []int{2, 0} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutPartial(key, 2, prefix); err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, serverOptions{store: st, checkpointEvery: every})
			resp := post(t, ts, tinyBody(101, 4))
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatal("resumed response differs from an uninterrupted run")
			}
			m := serverMetrics(t, s)
			if r, rr := m["cold_checkpoint_resumes_total"], m["cold_checkpoint_resumed_replicas_total"]; r != 1 || rr != 2 {
				t.Errorf("resumes=%v resumed_replicas=%v, want 1/2", r, rr)
			}
			if w := m["cold_checkpoint_writes_total"]; w != 0 {
				t.Errorf("checkpoint writes = %v, want 0", w)
			}
			// Storing the artifact dropped the checkpoint.
			if p := m["cold_store_partials"]; p != 0 {
				t.Errorf("partials = %v after promotion, want 0", p)
			}
			if d := m["cold_store_partials_dropped_total"]; d != 1 {
				t.Errorf("partials dropped = %v after promotion, want 1", d)
			}
			second := post(t, ts, tinyBody(101, 4))
			if got := second.Header.Get("X-Cold-Cache"); got != "hit" {
				t.Errorf("post-resume request cache = %q, want hit", got)
			}
			readAll(t, second)
		})
	}
	// A resumed job streams the replayed checkpoint lines as SSE events
	// like the ones it generates.
	t.Run("sse", func(t *testing.T) {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutPartial(key, 2, prefix); err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, serverOptions{store: st})
		if got, exp := postSSE(t, ts.URL, tinyBody(101, 4)), sseBody(want.Bytes(), hash, 4, "miss"); got != exp {
			t.Fatalf("resumed SSE body\n%s\nwant\n%s", got, exp)
		}
		if r := serverMetrics(t, s)["cold_checkpoint_resumes_total"]; r != 1 {
			t.Errorf("resumes = %v, want 1", r)
		}
	})
}

// TestCheckpointWriteAndPromote: with checkpointing enabled, a job writes
// partials as it streams and leaves none behind once promoted.
func TestCheckpointWriteAndPromote(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{checkpointEvery: 1})
	resp := post(t, ts, tinyBody(102, 3))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	m := serverMetrics(t, s)
	// Replicas 1 and 2 checkpoint; the full artifact (3 lines) never does —
	// promotion covers it.
	if w := m["cold_checkpoint_writes_total"]; w != 2 {
		t.Errorf("checkpoint writes = %v, want 2", w)
	}
	if r := m["cold_checkpoint_resumes_total"]; r != 0 {
		t.Errorf("checkpoint resumes = %v, want 0", r)
	}
	if p := m["cold_store_partials"]; p != 0 {
		t.Errorf("partials = %v after success, want 0", p)
	}
	hash := resp.Header.Get("X-Cold-Config-Hash")
	if ok, err := s.opts.store.Has(artifactKey(hash, 3)); err != nil || !ok {
		t.Errorf("final artifact missing after promotion: %v, %v", ok, err)
	}
}

// TestShutdownDrain503: a request whose job dies to the shutdown drain gets
// the documented 503 (pre-byte) with the shutdown error, not a generic 500.
func TestShutdownDrain503(t *testing.T) {
	base, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	s, ts := newTestServer(t, serverOptions{base: base, jobs: 1})

	type result struct {
		status int
		body   []byte
	}
	resc := make(chan result, 1)
	go func() {
		resp := post(t, ts, slowBody(41))
		resc <- result{resp.StatusCode, readAll(t, resp)}
	}()
	waitMetrics(t, s, "slow job to start", func(m metrics) bool { return m["cold_generation_jobs_total"] == 1 })
	s.beginShutdown()
	cancelJobs()
	r := <-resc
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", r.status, r.body)
	}
	if !strings.Contains(string(r.body), "shutting down") {
		t.Fatalf("body should carry the shutdown error: %s", r.body)
	}
	if err := s.drainJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := serverMetrics(t, s)["cold_jobs_canceled_total"]; c < 1 {
		t.Errorf("canceled = %v, want >= 1", c)
	}
}

// TestShutdownCheckpointsMidStream: the drain checkpoints a partially
// generated ensemble on the way down, and a mid-stream SSE client gets the
// shutdown error event instead of a hang or a generic error.
func TestShutdownCheckpointsMidStream(t *testing.T) {
	base, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	s, ts := newTestServer(t, serverOptions{base: base, jobs: 1, checkpointEvery: 1})

	// Slow enough per replica that the drain lands mid-ensemble, fast
	// enough that the first replicas finish promptly.
	body := `{"config":{"NumPoPs":16,"Seed":43,"Optimizer":{"PopulationSize":16,"Generations":200}},"count":50}`
	resc := make(chan string, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate?stream=sse", strings.NewReader(body))
		if err != nil {
			resc <- err.Error()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- err.Error()
			return
		}
		resc <- string(readAll(t, resp))
	}()
	// At least one replica checkpointed means the stream is mid-ensemble.
	waitMetrics(t, s, "first checkpoint", func(m metrics) bool { return m["cold_checkpoint_writes_total"] >= 1 })
	s.beginShutdown()
	cancelJobs()
	sse := <-resc
	if !strings.Contains(sse, "event: error") || !strings.Contains(sse, "shutting down") {
		t.Fatalf("SSE stream should end with the shutdown error event:\n%s", sse)
	}
	if err := s.drainJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The drain left a resumable checkpoint behind.
	if p := serverMetrics(t, s)["cold_store_partials"]; p < 1 {
		t.Errorf("partials = %v after drain, want >= 1", p)
	}
}

// TestJSONLFailureAbortsConnection: a JSONL client whose job fails after
// bytes were streamed (here: the shutdown drain) cannot be sent a status,
// so the connection is aborted and the client reads an error, never a
// clean end of a truncated body.
func TestJSONLFailureAbortsConnection(t *testing.T) {
	base, cancelJobs := context.WithCancel(context.Background())
	defer cancelJobs()
	s, ts := newTestServer(t, serverOptions{base: base, jobs: 1})
	body := `{"config":{"NumPoPs":16,"Seed":44,"Optimizer":{"PopulationSize":16,"Generations":200}},"count":50}`
	// Headers arrive with the first flushed replica.
	resp := post(t, ts, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading the first line: %v", err)
	}
	s.beginShutdown()
	cancelJobs()
	if rest, err := io.ReadAll(br); err == nil {
		t.Fatalf("truncated JSONL body ended cleanly after %d more bytes", len(rest))
	}
	if err := s.drainJobs(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestLogFields: the access log carries the request ID, route,
// status, config hash and cache status for a generate request.
func TestRequestLogFields(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, serverOptions{logger: logger})

	resp := post(t, ts, tinyBody(31, 1))
	readAll(t, resp)
	reqID := resp.Header.Get("X-Cold-Request-Id")
	hash := resp.Header.Get("X-Cold-Config-Hash")

	var reqLine map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad log line %s: %v", line, err)
		}
		if m["msg"] == "request" && m["route"] == "POST /v1/generate" {
			reqLine = m
		}
	}
	if reqLine == nil {
		t.Fatalf("no request log line for /v1/generate in:\n%s", buf.String())
	}
	for key, want := range map[string]any{
		"req_id":      reqID,
		"status":      float64(http.StatusOK),
		"config_hash": hash,
		"cache":       "miss",
		"job_id":      reqID,
	} {
		if got := reqLine[key]; got != want {
			t.Errorf("request log %s = %v, want %v", key, got, want)
		}
	}
	if !strings.Contains(buf.String(), `"msg":"job finished"`) {
		t.Errorf("no job-finished log line in:\n%s", buf.String())
	}
}
