package validate

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"

	"github.com/networksynth/cold/internal/dk"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/metrics"
)

// RecordSchemaVersion is the JSONL record schema version, bumped whenever a
// field is added, removed or changes meaning.
const RecordSchemaVersion = 1

// Float is a float64 whose JSON encoding survives the metric sentinels:
// NaN and ±Inf encode as null (encoding/json rejects them outright, which
// would abort a whole pipeline run the first time a star topology yields an
// undefined assortativity), and null decodes back to NaN.
type Float float64

// MarshalJSON encodes non-finite values as null; finite values use the
// standard encoding/json float formatting.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes null as NaN.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Record is one topology's row in the per-topology JSONL output (schema
// v1). Field order is fixed; all floats are NaN-safe Floats. Diameter keeps
// the metrics package's -1 sentinel for disconnected graphs so records stay
// faithful to what was measured — aggregation maps it to a skipped sample.
type Record struct {
	V         int    `json:"v"`
	Source    string `json:"source"`
	Replica   int    `json:"replica"`
	N         int    `json:"n"`
	Edges     int    `json:"edges"`
	Connected bool   `json:"connected"`
	Cost      Float  `json:"cost"` // objective total; null for reference topologies

	AvgDegree       Float `json:"avg_degree"`
	DegreeCV        Float `json:"degree_cv"`
	Diameter        int   `json:"diameter"` // hops; -1 when disconnected
	AvgPathLen      Float `json:"avg_path_len"`
	Clustering      Float `json:"clustering"`
	Assortativity   Float `json:"assortativity"`
	SMetric         Float `json:"s_metric"`
	Hubs            int   `json:"hubs"`
	Leaves          int   `json:"leaves"`
	MaxBetweenness  Float `json:"max_betweenness"`
	MeanBetweenness Float `json:"mean_betweenness"`

	// DegreeHist is the node-degree histogram as (degree, count) pairs in
	// ascending degree order — a slice, not a map, so the JSON encoding is
	// deterministic.
	DegreeHist [][2]int `json:"degree_hist"`
}

// Characterize computes the full per-topology record plus its 1K/2K
// distributions. cost is the synthesis objective total, or NaN for
// reference topologies that have none.
func Characterize(source string, replica int, g *graph.Graph, cost float64) (Record, map[int]int, map[[2]int]int) {
	s := metrics.Summarize(g)
	bc := metrics.NodeBetweenness(g)
	maxB, meanB := math.NaN(), math.NaN()
	if len(bc) > 0 {
		maxB = 0
		var sum float64
		for _, v := range bc {
			if v > maxB {
				maxB = v
			}
			sum += v
		}
		meanB = sum / float64(len(bc))
	}
	d1 := dk.Distribution1K(g)
	d2 := dk.JointDegree2K(g)
	hist := make([][2]int, 0, len(d1))
	for deg, count := range d1 {
		hist = append(hist, [2]int{deg, count})
	}
	sort.Slice(hist, func(i, j int) bool { return hist[i][0] < hist[j][0] })
	rec := Record{
		V:         RecordSchemaVersion,
		Source:    source,
		Replica:   replica,
		N:         s.N,
		Edges:     s.Edges,
		Connected: g.IsConnected(),
		Cost:      Float(cost),

		AvgDegree:       Float(s.AverageDegree),
		DegreeCV:        Float(s.DegreeCV),
		Diameter:        s.Diameter,
		AvgPathLen:      Float(s.AvgPathLen),
		Clustering:      Float(s.Clustering),
		Assortativity:   Float(s.Assortativity),
		SMetric:         Float(s.SMetric),
		Hubs:            s.Hubs,
		Leaves:          s.Leaves,
		MaxBetweenness:  Float(maxB),
		MeanBetweenness: Float(meanB),
		DegreeHist:      hist,
	}
	return rec, d1, d2
}

// metricDef names one scalar ensemble metric and extracts it from a record.
// The slice order is the canonical metric order everywhere: aggregate
// indexing, scorecard rows, bootstrap rng consumption.
type metricDef struct {
	name string
	get  func(Record) float64
}

var metricDefs = []metricDef{
	{"avg_degree", func(r Record) float64 { return float64(r.AvgDegree) }},
	{"degree_cv", func(r Record) float64 { return float64(r.DegreeCV) }},
	{"diameter", func(r Record) float64 {
		if r.Diameter < 0 {
			return math.NaN() // disconnected: no defined diameter
		}
		return float64(r.Diameter)
	}},
	{"avg_path_len", func(r Record) float64 { return float64(r.AvgPathLen) }},
	{"clustering", func(r Record) float64 { return float64(r.Clustering) }},
	{"assortativity", func(r Record) float64 { return float64(r.Assortativity) }},
	{"s_metric", func(r Record) float64 { return float64(r.SMetric) }},
	{"hubs", func(r Record) float64 { return float64(r.Hubs) }},
	{"leaves", func(r Record) float64 { return float64(r.Leaves) }},
	{"max_betweenness", func(r Record) float64 { return float64(r.MaxBetweenness) }},
	{"mean_betweenness", func(r Record) float64 { return float64(r.MeanBetweenness) }},
}

// MetricNames returns the canonical scalar metric names in scorecard order.
func MetricNames() []string {
	names := make([]string, len(metricDefs))
	for i, d := range metricDefs {
		names[i] = d.name
	}
	return names
}
