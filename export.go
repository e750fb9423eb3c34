package cold

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// networkJSON is the stable on-disk representation of a Network. Its tags
// name the keys UnmarshalJSON reads; MarshalJSON writes the same keys,
// in field order, without reflection.
type networkJSON struct {
	Points      []Point     `json:"points"`
	Populations []float64   `json:"populations"`
	Demand      [][]float64 `json:"demand,omitempty"`
	Links       []Link      `json:"links"`
	Cost        CostBreakdown
	Stats       Stats     `json:"stats"`
	History     []float64 `json:"history,omitempty"`
}

// MarshalJSON encodes the network, including points, populations, links
// with capacities, the cost breakdown and summary statistics. The output
// is compact and byte for byte what encoding/json writes for networkJSON:
// the same key order, null for a nil slice, demand and history omitted
// when empty, and encoding/json's float format. A NaN or infinite float
// is an *json.UnsupportedValueError.
func (nw *Network) MarshalJSON() ([]byte, error) {
	entries := 0
	for _, row := range nw.Demand {
		entries += len(row)
	}
	// Size the buffer from typical field widths so it rarely grows.
	w := jsonWriter{b: make([]byte, 0, 256+48*len(nw.Points)+24*len(nw.Populations)+
		20*entries+80*len(nw.Links)+24*len(nw.History))}
	w.raw(`{"points":`)
	if nw.Points == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, p := range nw.Points {
			if i > 0 {
				w.raw(",")
			}
			w.raw(`{"X":`)
			w.float(p.X)
			w.raw(`,"Y":`)
			w.float(p.Y)
			w.raw("}")
		}
		w.raw("]")
	}
	w.raw(`,"populations":`)
	w.floats(nw.Populations)
	if len(nw.Demand) > 0 {
		w.raw(`,"demand":`)
		w.demand(nw.Demand, entries)
	}
	w.raw(`,"links":`)
	if nw.Links == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, l := range nw.Links {
			if i > 0 {
				w.raw(",")
			}
			w.raw(`{"A":`)
			w.int(l.A)
			w.raw(`,"B":`)
			w.int(l.B)
			w.raw(`,"Length":`)
			w.float(l.Length)
			w.raw(`,"Capacity":`)
			w.float(l.Capacity)
			w.raw("}")
		}
		w.raw("]")
	}
	c := nw.Cost
	w.raw(`,"Cost":{"Total":`)
	w.float(c.Total)
	w.raw(`,"Existence":`)
	w.float(c.Existence)
	w.raw(`,"Length":`)
	w.float(c.Length)
	w.raw(`,"Bandwidth":`)
	w.float(c.Bandwidth)
	w.raw(`,"Node":`)
	w.float(c.Node)
	st := nw.Stats()
	w.raw(`},"stats":{"NumPoPs":`)
	w.int(st.NumPoPs)
	w.raw(`,"NumLinks":`)
	w.int(st.NumLinks)
	w.raw(`,"AverageDegree":`)
	w.float(st.AverageDegree)
	w.raw(`,"DegreeCV":`)
	w.float(st.DegreeCV)
	w.raw(`,"Diameter":`)
	w.int(st.Diameter)
	w.raw(`,"Clustering":`)
	w.float(st.Clustering)
	w.raw(`,"Hubs":`)
	w.int(st.Hubs)
	w.raw(`,"Leaves":`)
	w.int(st.Leaves)
	w.raw(`,"AvgPathLen":`)
	w.float(st.AvgPathLen)
	w.raw("}")
	if len(nw.History) > 0 {
		w.raw(`,"history":`)
		w.floats(nw.History)
	}
	w.raw("}")
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// jsonWriter appends JSON to b. The first non-finite float is kept in err
// and the output is then discarded.
type jsonWriter struct {
	b   []byte
	err error
}

func (w *jsonWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *jsonWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float formats f as encoding/json does: 'f' format, or 'e' format with
// "e-0N" shortened to "e-N" when |f| < 1e-6 or |f| >= 1e21.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

func (w *jsonWriter) floats(xs []float64) {
	if xs == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, x := range xs {
		if i > 0 {
			w.raw(",")
		}
		w.float(x)
	}
	w.raw("]")
}

// demand writes the matrix d, which holds entries values in all. An entry
// d[i][j] below the diagonal that is bitwise equal to its mirror d[j][i]
// copies the bytes already written for the mirror: the traffic matrix is
// symmetric, so this formats each pair of entries once.
func (w *jsonWriter) demand(d [][]float64, entries int) {
	// off holds, per row, the offset in b of each entry and then a
	// sentinel one past the row's last entry plus one, so entry k of the
	// row spans b[off[k] : off[k+1]-1] (the -1 drops the comma).
	off := make([]int, 0, entries+len(d))
	rowAt := make([]int, len(d)) // index in off of each row's entry 0
	w.raw("[")
	for i, row := range d {
		if i > 0 {
			w.raw(",")
		}
		rowAt[i] = len(off)
		if row == nil {
			w.raw("null")
			continue
		}
		w.raw("[")
		for j, v := range row {
			if j > 0 {
				w.raw(",")
			}
			off = append(off, len(w.b))
			if j < i && i < len(d[j]) && math.Float64bits(d[j][i]) == math.Float64bits(v) {
				k := rowAt[j] + i
				w.b = append(w.b, w.b[off[k]:off[k+1]-1]...)
				continue
			}
			w.float(v)
		}
		off = append(off, len(w.b)+1)
		w.raw("]")
	}
	w.raw("]")
}

// UnmarshalJSON decodes a network previously written by MarshalJSON. The
// routing tables are not serialized; Path is unavailable on decoded
// networks (it reports no route).
func (nw *Network) UnmarshalJSON(data []byte) error {
	var raw networkJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("cold: decoding network: %w", err)
	}
	n := len(raw.Points)
	for _, l := range raw.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return fmt.Errorf("cold: link (%d,%d) out of range for %d PoPs", l.A, l.B, n)
		}
	}
	nw.Points = raw.Points
	nw.Populations = raw.Populations
	nw.Demand = raw.Demand
	nw.Links = raw.Links
	nw.Cost = raw.Cost
	nw.History = raw.History
	nw.adj = make([][]bool, n)
	for i := range nw.adj {
		nw.adj[i] = make([]bool, n)
	}
	for _, l := range nw.Links {
		nw.adj[l.A][l.B] = true
		nw.adj[l.B][l.A] = true
	}
	nw.routing = nil
	nw.stats = raw.Stats
	return nil
}

// ExportFormat selects the serialization used by Network.Export.
type ExportFormat int

// Export formats.
const (
	// ExportJSON is the stable JSON representation (MarshalJSON),
	// indented; it round-trips through UnmarshalJSON.
	ExportJSON ExportFormat = iota
	// ExportDOT is Graphviz DOT: PoPs positioned at their coordinates,
	// links labeled with capacity.
	ExportDOT
	// ExportTSV is one link per line: a, b, length, capacity.
	ExportTSV
)

// exportFormatNames is the single source of format names: String,
// ParseExportFormat and the parse error's valid-name list all derive from
// it, so the three can never drift apart.
var exportFormatNames = [...]string{
	ExportJSON: "json",
	ExportDOT:  "dot",
	ExportTSV:  "tsv",
}

// String returns the format's canonical lower-case name — the exact
// spelling ParseExportFormat accepts, so the two round-trip.
func (f ExportFormat) String() string {
	if f >= 0 && int(f) < len(exportFormatNames) {
		return exportFormatNames[f]
	}
	return fmt.Sprintf("ExportFormat(%d)", int(f))
}

// ParseExportFormat maps a format name ("json", "dot", "tsv"; case
// insensitive) to its ExportFormat, for wiring Export to command-line
// flags. Unknown names are rejected with an error listing every valid
// name. ParseExportFormat(f.String()) == f for all defined formats.
func ParseExportFormat(name string) (ExportFormat, error) {
	lower := strings.ToLower(name)
	for f, n := range exportFormatNames {
		if lower == n {
			return ExportFormat(f), nil
		}
	}
	return 0, fmt.Errorf("cold: unknown export format %q (valid formats: %s)",
		name, strings.Join(exportFormatNames[:], ", "))
}

// Export writes the network to w in the given format. It is the single
// entry point for all serializations.
func (nw *Network) Export(w io.Writer, format ExportFormat) error {
	switch format {
	case ExportJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(nw)
	case ExportDOT:
		return nw.writeDOT(w)
	case ExportTSV:
		return nw.writeTSV(w)
	default:
		return fmt.Errorf("cold: unknown export format %d (valid formats: %s)",
			int(format), strings.Join(exportFormatNames[:], ", "))
	}
}

func (nw *Network) writeDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("graph cold {\n")
	b.WriteString("  node [shape=circle];\n")
	for i, p := range nw.Points {
		fmt.Fprintf(&b, "  %d [pos=\"%.4f,%.4f!\"];\n", i, p.X, p.Y)
	}
	for _, l := range nw.Links {
		fmt.Fprintf(&b, "  %d -- %d [label=\"%.1f\"];\n", l.A, l.B, l.Capacity)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func (nw *Network) writeTSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("a\tb\tlength\tcapacity\n")
	for _, l := range nw.Links {
		fmt.Fprintf(&b, "%d\t%d\t%.6f\t%.6f\n", l.A, l.B, l.Length, l.Capacity)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
