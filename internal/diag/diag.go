// Package diag serves the live diagnostics endpoints the CLI commands
// expose with -metrics and cmd/coldd serves natively: Prometheus
// text-format exposition on /metrics (internal/telemetry registry) and
// net/http/pprof (/debug/pprof/) for CPU, heap and contention profiles of
// a running synthesis. It also owns the process identity metrics:
// cold_build_info (version, go version, VCS revision) and
// cold_uptime_seconds, both documented in DESIGN.md ("Observability").
package diag

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/networksynth/cold/internal/telemetry"
)

// start anchors cold_uptime_seconds and the /healthz start time to process
// initialization.
var start = time.Now()

// Serve starts an HTTP listener on addr (host:port; an empty host binds
// all interfaces, port 0 picks a free one) serving Handler(reg) — /metrics
// (when reg is non-nil) and /debug/pprof/. It returns the bound address
// and a shutdown function. The server is for diagnostics, not production
// exposure: bind loopback unless you mean it.
func Serve(addr string, reg *telemetry.Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln) //nolint:errcheck // Close's ErrServerClosed is the shutdown path
	return ln.Addr().String(), srv.Close, nil
}

// Handler returns the diagnostics mux: GET /metrics rendering reg (when
// non-nil) plus /debug/pprof/. Only the pprof subtree of the default mux
// is exposed.
func Handler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// Info is the process build identity served by /healthz and labeled onto
// cold_build_info.
type Info struct {
	Version   string    `json:"version"`                // main module version ("(devel)" for local builds)
	GoVersion string    `json:"go_version"`             // toolchain that built the binary
	Revision  string    `json:"vcs_revision,omitempty"` // VCS commit, if stamped
	VCSTime   string    `json:"vcs_time,omitempty"`     // commit timestamp, if stamped
	Start     time.Time `json:"start"`                  // process start (package init)
}

var (
	infoOnce   sync.Once
	cachedInfo Info
)

// ProcessInfo returns the build identity of the running binary, read once
// from debug.ReadBuildInfo.
func ProcessInfo() Info {
	infoOnce.Do(func() {
		cachedInfo = Info{Version: "unknown", GoVersion: runtime.Version(), Start: start}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" {
			cachedInfo.Version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			cachedInfo.GoVersion = bi.GoVersion
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cachedInfo.Revision = s.Value
			case "vcs.time":
				cachedInfo.VCSTime = s.Value
			}
		}
	})
	return cachedInfo
}

// Uptime returns the time since process start.
func Uptime() time.Duration { return time.Since(start) }

// RegisterBuildInfo publishes cold_build_info (a constant 1 carrying the
// build identity as labels) and cold_uptime_seconds into reg.
func RegisterBuildInfo(reg *telemetry.Registry) {
	info := ProcessInfo()
	labels := []telemetry.Label{
		telemetry.L("goversion", info.GoVersion),
		telemetry.L("version", info.Version),
	}
	if info.Revision != "" {
		labels = append(labels, telemetry.L("revision", info.Revision))
	}
	reg.GaugeFunc("cold_build_info", "Build identity of the running binary; value is always 1.",
		func() float64 { return 1 }, labels...)
	reg.GaugeFunc("cold_uptime_seconds", "Seconds since process start.",
		func() float64 { return Uptime().Seconds() })
}

// RegisterRuntime publishes the Go runtime's health metrics under
// cold_go_* names.
func RegisterRuntime(reg *telemetry.Registry) {
	reg.GaugeFunc("cold_go_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("cold_go_gomaxprocs", "GOMAXPROCS setting.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
	mem := func(get func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return get(&ms)
		}
	}
	reg.GaugeFunc("cold_go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	reg.GaugeFunc("cold_go_sys_bytes", "Bytes obtained from the OS.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.Sys) }))
	reg.CounterFunc("cold_go_alloc_bytes_total", "Cumulative bytes allocated for heap objects.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.TotalAlloc) }))
	reg.CounterFunc("cold_go_gc_cycles_total", "Completed GC cycles.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	reg.CounterFunc("cold_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
}
