package telemetry

// Prometheus text-format exposition (version 0.0.4), zero-dependency. A
// Registry maps stable metric names to Collectors; WriteText renders the
// whole registry as `# HELP`/`# TYPE` headers plus sorted series lines,
// with histograms expanded into cumulative `_bucket`/`_sum`/`_count`
// series. Everything a collector emits comes from the consistent
// Snapshot/Load primitives above, so a scrape never observes a torn
// sum/count pair. LintExposition is the structural validator the format
// tests and CI smoke run against real scrapes.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricKind is the Prometheus metric type of a registered family.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one label name/value pair of a series. Values may contain any
// UTF-8; the encoder escapes them.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one series a Collector emits: its label set plus either a
// scalar value (counter/gauge) or a histogram snapshot.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistogramSnapshot
}

// Collector emits the current samples of one metric family. Collectors run
// at scrape time under the registry's read path; they must be safe for
// concurrent use and should only read consistent snapshots.
type Collector func(emit func(Sample))

type family struct {
	name, help string
	kind       MetricKind
	collect    Collector
}

// Registry is a stable-name metric registry rendering to Prometheus text
// format. Registration is wiring-time (duplicate or malformed names panic
// via the Must* helpers); scraping is concurrent-safe.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Register adds one metric family. The name must match the Prometheus
// metric-name grammar and be unused; histogram families additionally
// reserve name_bucket/name_sum/name_count.
func (r *Registry) Register(name, help string, kind MetricKind, c Collector) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	if c == nil {
		return fmt.Errorf("telemetry: metric %q has no collector", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		return fmt.Errorf("telemetry: duplicate metric %q", name)
	}
	r.families[name] = &family{name: name, help: help, kind: kind, collect: c}
	return nil
}

// MustRegister is Register, panicking on error — registration lists are
// compile-time wiring, not runtime input.
func (r *Registry) MustRegister(name, help string, kind MetricKind, c Collector) {
	if err := r.Register(name, help, kind, c); err != nil {
		panic(err)
	}
}

// Counter registers a *Counter under name (by convention a _total name).
func (r *Registry) Counter(name, help string, c *Counter, labels ...Label) {
	r.MustRegister(name, help, KindCounter, func(emit func(Sample)) {
		emit(Sample{Labels: labels, Value: float64(c.Load())})
	})
}

// CounterFunc registers a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.MustRegister(name, help, KindCounter, func(emit func(Sample)) {
		emit(Sample{Labels: labels, Value: f()})
	})
}

// Gauge registers a *Gauge under name.
func (r *Registry) Gauge(name, help string, g *Gauge, labels ...Label) {
	r.MustRegister(name, help, KindGauge, func(emit func(Sample)) {
		emit(Sample{Labels: labels, Value: float64(g.Load())})
	})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.MustRegister(name, help, KindGauge, func(emit func(Sample)) {
		emit(Sample{Labels: labels, Value: f()})
	})
}

// Histogram registers a *Histogram under name, exposed with its native
// bucket bounds (use DurationHistogram for nanosecond instruments).
func (r *Registry) Histogram(name, help string, h *Histogram, labels ...Label) {
	r.MustRegister(name, help, KindHistogram, func(emit func(Sample)) {
		s := h.Snapshot()
		emit(Sample{Labels: labels, Hist: &s})
	})
}

// DurationHistogram registers a nanosecond-bucketed *Histogram as a
// seconds-valued family (bounds and sum scaled by 1e-9), per the
// Prometheus base-unit convention. The name should end in _seconds.
func (r *Registry) DurationHistogram(name, help string, h *Histogram, labels ...Label) {
	r.MustRegister(name, help, KindHistogram, func(emit func(Sample)) {
		s := h.Snapshot().Scaled(1e-9)
		emit(Sample{Labels: labels, Hist: &s})
	})
}

// Scaled returns a copy of the snapshot with bounds and sum multiplied by
// f — the unit conversion hook for exposing nanosecond instruments in
// seconds. Counts are untouched.
func (s HistogramSnapshot) Scaled(f float64) HistogramSnapshot {
	bounds := make([]float64, len(s.Bounds))
	for i, b := range s.Bounds {
		bounds[i] = b * f
	}
	s.Bounds = bounds
	s.Counts = append([]uint64(nil), s.Counts...)
	s.Sum *= f
	return s
}

// HistogramVec is a labeled histogram family: one fixed-bounds Histogram
// per label-value combination, created on first use. A nil *HistogramVec
// hands out nil histograms, so disabled instrumentation stays one
// nil-check deep. All methods are safe for concurrent use.
type HistogramVec struct {
	bounds     []float64
	labelNames []string

	mu     sync.Mutex
	series map[string]*vecSeries
}

type vecSeries struct {
	labels []Label
	h      *Histogram
}

// NewHistogramVec builds a histogram family over bounds (see NewHistogram)
// partitioned by the given label names.
func NewHistogramVec(bounds []float64, labelNames ...string) *HistogramVec {
	if len(labelNames) == 0 {
		panic("telemetry: HistogramVec needs at least one label name")
	}
	for _, n := range labelNames {
		if !labelNameRE.MatchString(n) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", n))
		}
	}
	// Validate bounds eagerly so a bad layout fails at wiring time, not on
	// the first observation.
	NewHistogram(bounds)
	return &HistogramVec{
		bounds:     append([]float64(nil), bounds...),
		labelNames: append([]string(nil), labelNames...),
		series:     make(map[string]*vecSeries),
	}
}

// With returns the histogram for the given label values (one per label
// name, in order), creating it on first use. A nil receiver returns a nil
// (no-op) histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: HistogramVec got %d label values, want %d", len(values), len(v.labelNames)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[key]
	if !ok {
		labels := make([]Label, len(values))
		for i, val := range values {
			labels[i] = Label{Name: v.labelNames[i], Value: val}
		}
		s = &vecSeries{labels: labels, h: NewHistogram(v.bounds)}
		v.series[key] = s
	}
	return s.h
}

// snapshot returns a stable copy of the live series list.
func (v *HistogramVec) snapshot() []*vecSeries {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*vecSeries, 0, len(v.series))
	for _, s := range v.series {
		out = append(out, s)
	}
	return out
}

// HistogramVec registers a labeled histogram family with its native bounds.
func (r *Registry) HistogramVec(name, help string, v *HistogramVec) {
	r.MustRegister(name, help, KindHistogram, vecCollector(v, 1))
}

// DurationHistogramVec registers a nanosecond-bucketed family scaled to
// seconds, like DurationHistogram.
func (r *Registry) DurationHistogramVec(name, help string, v *HistogramVec) {
	r.MustRegister(name, help, KindHistogram, vecCollector(v, 1e-9))
}

func vecCollector(v *HistogramVec, scale float64) Collector {
	return func(emit func(Sample)) {
		for _, s := range v.snapshot() {
			snap := s.h.Snapshot()
			if scale != 1 {
				snap = snap.Scaled(scale)
			}
			emit(Sample{Labels: s.labels, Hist: &snap})
		}
	}
}

// WriteText renders the registry in Prometheus text exposition format
// 0.0.4: families in name order, `# HELP`/`# TYPE` before their samples,
// labels sorted by name, histograms as cumulative buckets plus _sum and
// _count. The output is deterministic for a fixed registry state, which is
// what the golden test pins.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make([]*family, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')

		var samples []Sample
		f.collect(func(s Sample) { samples = append(samples, s) })
		for i := range samples {
			sortLabels(samples[i].Labels)
		}
		sort.SliceStable(samples, func(i, j int) bool {
			return labelSignature(samples[i].Labels) < labelSignature(samples[j].Labels)
		})
		for _, s := range samples {
			if f.kind == KindHistogram && s.Hist != nil {
				writeHistogram(&b, f.name, s.Labels, *s.Hist)
				continue
			}
			writeSeries(&b, f.name, s.Labels, formatValue(s.Value))
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry as a /metrics
// endpoint with the standard text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w) //nolint:errcheck // a dead client is not a scrape error
	})
}

func sortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
}

func labelSignature(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xff')
	}
	return b.String()
}

func writeHistogram(b *strings.Builder, name string, labels []Label, h HistogramSnapshot) {
	var cum uint64
	for i, bound := range h.Bounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		writeSeries(b, name+"_bucket", withLE(labels, formatValue(bound)), strconv.FormatUint(cum, 10))
	}
	writeSeries(b, name+"_bucket", withLE(labels, "+Inf"), strconv.FormatUint(h.Count, 10))
	writeSeries(b, name+"_sum", labels, formatValue(h.Sum))
	writeSeries(b, name+"_count", labels, strconv.FormatUint(h.Count, 10))
}

// withLE appends the bucket's le label, keeping the sorted-by-name
// invariant ("le" is inserted in place).
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	inserted := false
	for _, l := range labels {
		if !inserted && l.Name > "le" {
			out = append(out, Label{Name: "le", Value: le})
			inserted = true
		}
		out = append(out, l)
	}
	if !inserted {
		out = append(out, Label{Name: "le", Value: le})
	}
	return out
}

func writeSeries(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }
