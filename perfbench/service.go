package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cold "github.com/networksynth/cold"
)

// colddArgs are the flags every coldd instance runs with: one generation
// job at a time on one replica worker, so a second concurrent miss waits in
// the queue and a hit finds a CPU free while a miss generates. With every
// CPU running generation workers, the Go scheduler can leave a hit's
// handler runnable for a whole preemption slice, and hit latency then
// measures scheduling luck rather than the hit path.
func colddArgs(cache string) []string {
	return []string{"-addr", "127.0.0.1:0", "-cache", cache, "-jobs", "1", "-queue", "64", "-parallel", "1"}
}

// controlClient carries the requests made outside the measured window:
// health checks, pre-seeding, scrapes and rechecks.
var controlClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Minute}

// svcConfig is one coldd request: its body and the Config.Hash the reply
// must carry.
type svcConfig struct {
	body []byte
	hash string
}

func (b *bench) svcConfig(seed int64) (svcConfig, error) {
	s := b.sz.service
	opt := cold.OptimizerSpec{PopulationSize: s.pop, Generations: s.gens}
	hash, err := cold.Config{NumPoPs: s.n, Seed: seed, Optimizer: opt}.Hash()
	if err != nil {
		return svcConfig{}, err
	}
	// The wire form names only the fields coldd reads: cold.Config holds a
	// func field, which encoding/json cannot encode.
	type wireConfig struct {
		NumPoPs   int
		Seed      int64
		Optimizer cold.OptimizerSpec
	}
	body, err := json.Marshal(struct {
		Config wireConfig `json:"config"`
		Count  int        `json:"count"`
	}{wireConfig{s.n, seed, opt}, b.sz.serviceCount})
	return svcConfig{body: body, hash: hash}, err
}

// daemon is one running coldd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	drained chan struct{} // closed once coldd's stderr reaches EOF
}

// startColdd executes coldd and returns once /healthz answers 200.
func startColdd(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting coldd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			_, rest, ok := strings.Cut(sc.Text(), "listening on http://")
			if f := strings.Fields(rest); ok && !sent && len(f) > 0 {
				addr <- f[0]
				sent = true
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // keep draining past an over-long line
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop() //nolint:errcheck // it already exited; the error below says why we stopped
		return nil, errors.New("coldd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop() //nolint:errcheck
		return nil, errors.New("coldd did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := controlClient.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck
			return nil, errors.New("coldd /healthz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for coldd to drain and exit (killing it after
// 10 s), and returns its peak RSS in KiB.
func (d *daemon) stop() (int64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is reaped below
	exited := make(chan error, 1)
	go func() {
		<-d.drained
		exited <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-exited
		err = errors.New("coldd did not exit within 10s of SIGTERM")
	}
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rss, err
}

// reply is one /v1/generate response as the client saw it.
type reply struct {
	status      int
	header      http.Header
	body        []byte
	ttfb, total time.Duration // to the first body byte, to the last
}

// post sends one generate request on hc and reads the whole reply.
func post(hc *http.Client, base string, body []byte) (reply, error) {
	var r reply
	start := time.Now()
	resp, err := hc.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.status, r.header = resp.StatusCode, resp.Header
	first := make([]byte, 1, 64<<10)
	if _, err := io.ReadFull(resp.Body, first); err != nil {
		return r, err
	}
	r.ttfb = time.Since(start)
	buf := bytes.NewBuffer(first)
	_, err = buf.ReadFrom(resp.Body)
	r.total = time.Since(start)
	r.body = buf.Bytes()
	return r, err
}

// checkReply applies the checks made inside the window: status 200, the
// config-hash and count headers, the expected cache outcome, the line
// count, and for a hit the exact bytes of the verified reference body.
func (b *bench) checkReply(r *reply, cfg svcConfig, wantCache string, ref []byte) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if got := r.header.Get("X-Cold-Config-Hash"); got != cfg.hash {
		return fmt.Errorf("X-Cold-Config-Hash %q, Config.Hash() %q", got, cfg.hash)
	}
	if got, want := r.header.Get("X-Cold-Count"), strconv.Itoa(b.sz.serviceCount); got != want {
		return fmt.Errorf("X-Cold-Count %q, want %s", got, want)
	}
	if got := r.header.Get("X-Cold-Cache"); got != wantCache {
		return fmt.Errorf("X-Cold-Cache %q, want %q", got, wantCache)
	}
	if ref != nil && !bytes.Equal(r.body, ref) {
		return errors.New("hit body differs from the miss body of the same config")
	}
	if got := bytes.Count(r.body, newline); got != b.sz.serviceCount {
		return fmt.Errorf("%d lines, want %d", got, b.sz.serviceCount)
	}
	return nil
}

// svcFigures are the coldd-layer figures of one service run.
type svcFigures struct {
	hits, misses, rejected int
	queueWaitMs            float64 // mean successful slot wait over the window
	jobsPerMiss            float64 // generation jobs per miss reply: single-flight sharing
}

// serviceMix drives the real coldd binary on localhost with nproc
// closed-loop clients. Each request asks for a pre-seeded hot config (a
// store hit) with probability hitShare and otherwise for a fresh config
// (admission, generation, encode and store.Put). Only this workload runs
// cmd/coldd and internal/store, and it puts reads beside writes.
func serviceMix(b *bench, phase int, dur time.Duration) (*outcome, error) {
	o := &outcome{}
	args := colddArgs(filepath.Join(b.runDir, fmt.Sprintf("coldd-cache-%d", phase)))
	hot, hotBody, err := b.preseed(args)
	if err != nil {
		return nil, err
	}
	o.artifact = hotBody[0]

	// Set-up is exec to the first 200 from /healthz over the pre-seeded
	// cache; the last daemon started serves the mix.
	var d *daemon
	for i := 0; i < b.sz.setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		_, end := b.tr.begin("coldd exec to /healthz 200", 0)
		start := time.Now()
		d, err = startColdd(b.coldd, args)
		end()
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	reqs, wall, figs, err := b.mix(d.base, hot, hotBody, dur)
	rss, stopErr := d.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	o.rssKB, o.wall, o.svc = rss, wall, figs
	for _, r := range reqs {
		o.attempted++
		if r.err != nil {
			o.failed++
			continue
		}
		o.networks += b.sz.serviceCount
		if r.hot >= 0 {
			o.serve = append(o.serve, r.total)
		} else {
			o.gen = append(o.gen, r.total)
			o.first = append(o.first, r.ttfb)
		}
	}
	return o, nil
}

// preseed fills a fresh cache with the hot set through a first daemon.
// Each body is checked in full and becomes the reference every later hit
// must equal byte for byte.
func (b *bench) preseed(args []string) ([]svcConfig, [][]byte, error) {
	d, err := startColdd(b.coldd, args)
	if err != nil {
		return nil, nil, err
	}
	hot := make([]svcConfig, b.sz.hotSet)
	bodies := make([][]byte, len(hot))
	for h := range hot {
		if hot[h], err = b.svcConfig(opSeed(b.seed, streamHot, h)); err != nil {
			break
		}
		var r reply
		if r, err = post(controlClient, d.base, hot[h].body); err != nil {
			break
		}
		if err = b.checkFull(&r, hot[h], "miss"); err != nil {
			err = fmt.Errorf("pre-seeding hot config %d: %w", h, err)
			break
		}
		bodies[h] = r.body
	}
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return hot, bodies, err
}

// checkFull is checkReply plus the full check of every network.
func (b *bench) checkFull(r *reply, cfg svcConfig, wantCache string) error {
	if err := b.checkReply(r, cfg, wantCache, nil); err != nil {
		return err
	}
	return verifyArtifact(r.body, b.sz.serviceCount, b.sz.service.n)
}

// request is one client request of the mix.
type request struct {
	hot         int // hot-set index, or -1 for a fresh config
	cfg         svcConfig
	status      int
	ttfb, total time.Duration
	end         time.Time
	sum         [sha256.Size]byte // SHA-256 of a miss body, rechecked after the window
	err         error
}

// mix runs nproc closed-loop clients until dur has passed (each finishes
// the request it has in flight) and scrapes /metrics around them. Then it
// asks for every missed config again: the reply must be a hit with the
// miss body's bytes, and every network in it must pass the full check.
// It returns the requests, the measured window and the coldd figures.
func (b *bench) mix(base string, hot []svcConfig, hotBody [][]byte, dur time.Duration) ([]request, time.Duration, *svcFigures, error) {
	before, err := scrape(base)
	if err != nil {
		return nil, 0, nil, err
	}
	per := make([][]request, b.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = b.client(base, c, hot, hotBody, start.Add(dur))
		}(c)
	}
	wg.Wait()
	var reqs []request
	end := start
	for _, rs := range per {
		for _, r := range rs {
			if r.end.After(end) {
				end = r.end
			}
		}
		reqs = append(reqs, rs...)
	}
	after, err := scrape(base)
	if err != nil {
		return nil, 0, nil, err
	}
	figs := &svcFigures{}
	for _, r := range reqs {
		switch {
		case r.status == http.StatusTooManyRequests:
			figs.rejected++
		case r.err != nil:
		case r.hot >= 0:
			figs.hits++
		default:
			figs.misses++
		}
	}
	figs.queueWaitMs = 1000 * ratio(after.waitSum-before.waitSum, after.waitCount-before.waitCount)
	figs.jobsPerMiss = ratio(after.jobs-before.jobs, float64(figs.misses))
	for i := range reqs {
		if r := &reqs[i]; r.err == nil && r.hot < 0 {
			r.err = b.recheck(base, r)
		}
	}
	return reqs, end.Sub(start), figs, nil
}

// client is one closed-loop client: it sends its next request only once
// the previous reply is complete, over its own single connection. Misses
// come at a fixed stride (every fifth request at hitShare 0.8), not by
// coin flip: a miss costs a hundred hits, so a random share would make
// the run's throughput follow the coin rather than the program.
func (b *bench) client(base string, c int, hot []svcConfig, hotBody [][]byte, deadline time.Time) []request {
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	rng := rand.New(rand.NewSource(opSeed(b.seed, streamClient, c)))
	missShare := 1 - b.sz.hitShare
	var out []request
	for k := c; time.Now().Before(deadline); k++ {
		r := request{hot: -1}
		wantCache, ref := "miss", []byte(nil)
		if math.Floor(float64(k+1)*missShare) == math.Floor(float64(k)*missShare) {
			r.hot = rng.Intn(len(hot))
			r.cfg, wantCache, ref = hot[r.hot], "hit", hotBody[r.hot]
		} else if r.cfg, r.err = b.svcConfig(opSeed(b.seed, streamFresh, c<<32|k)); r.err != nil {
			out = append(out, r)
			continue
		}
		_, end := b.tr.begin("coldd POST /v1/generate "+wantCache, 0)
		rep, err := post(hc, base, r.cfg.body)
		end()
		r.end = time.Now()
		r.status, r.ttfb, r.total = rep.status, rep.ttfb, rep.total
		if err == nil {
			err = b.checkReply(&rep, r.cfg, wantCache, ref)
		}
		r.err = err
		if err == nil && r.hot < 0 {
			r.sum = sha256.Sum256(rep.body)
		}
		out = append(out, r)
	}
	return out
}

// recheck asks for a missed config again after the window.
func (b *bench) recheck(base string, r *request) error {
	again, err := post(controlClient, base, r.cfg.body)
	if err != nil {
		return err
	}
	if err := b.checkFull(&again, r.cfg, "hit"); err != nil {
		return err
	}
	if sha256.Sum256(again.body) != r.sum {
		return errors.New("hit body differs from the miss body of the same config")
	}
	return nil
}

// colddCounters are the /metrics series the coldd figures difference.
type colddCounters struct{ waitSum, waitCount, jobs float64 }

// scrape reads the queue-wait and generation-job series from /metrics.
func scrape(base string) (colddCounters, error) {
	var c colddCounters
	resp, err := controlClient.Get(base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "cold_queue_wait_seconds_sum":
			c.waitSum = v
		case "cold_queue_wait_seconds_count":
			c.waitCount = v
		case "cold_generation_jobs_total":
			c.jobs = v
		}
	}
	return c, sc.Err()
}
