package cold

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// marshalOracle is the reference encoder: encoding/json over networkJSON.
// MarshalJSON must write exactly its bytes and fail exactly when it fails.
func marshalOracle(nw *Network) ([]byte, error) {
	return json.Marshal(networkJSON{
		Points:      nw.Points,
		Populations: nw.Populations,
		Demand:      nw.Demand,
		Links:       nw.Links,
		Cost:        nw.Cost,
		Stats:       nw.Stats(),
		History:     nw.History,
	})
}

// checkAgainstOracle fails t unless MarshalJSON and the oracle agree on
// the bytes, or both fail with the same *json.UnsupportedValueError. On
// success json.Marshal(nw), which coldd's stored artifacts were written
// with, must give the same bytes too.
func checkAgainstOracle(t *testing.T, nw *Network) {
	t.Helper()
	got, err := nw.MarshalJSON()
	want, werr := marshalOracle(nw)
	if werr != nil {
		var uerr *json.UnsupportedValueError
		if !errors.As(err, &uerr) || err.Error() != werr.Error() {
			t.Fatalf("oracle fails with %v, MarshalJSON with %v", werr, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("MarshalJSON fails with %v, oracle succeeds", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON differs from the oracle:\n got %.300s\nwant %.300s", got, want)
	}
	viaMarshal, err := json.Marshal(nw)
	if err != nil || !bytes.Equal(viaMarshal, got) {
		t.Fatalf("json.Marshal differs from MarshalJSON (err %v)", err)
	}
}

func TestMarshalJSONMatchesOracle(t *testing.T) {
	for _, n := range []int{2, 5, 20, 30, 64, 128} {
		for _, history := range []bool{false, true} {
			cfg := Config{NumPoPs: n, Seed: int64(n), Optimizer: OptimizerSpec{
				PopulationSize: 6, Generations: 3, TrackHistory: history}}
			nw, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, nw)
			data, err := nw.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var decoded Network
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, &decoded)
		}
	}
}

// TestPathOnDecodedNetwork: a decoded network has no routing tables, so
// Path reports no route between distinct PoPs instead of panicking.
func TestPathOnDecodedNetwork(t *testing.T) {
	data, err := json.Marshal(exportNetwork(t))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Network
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if p := decoded.Path(0, 1); p != nil {
		t.Errorf("Path(0, 1) = %v on a decoded network, want nil", p)
	}
	if p := decoded.Path(2, 2); !reflect.DeepEqual(p, []int{2}) {
		t.Errorf("Path(2, 2) = %v, want [2]", p)
	}
}

func exportNetwork(t *testing.T) *Network {
	t.Helper()
	nw, err := Generate(fastConfig(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestExportAllFormats(t *testing.T) {
	nw := exportNetwork(t)
	for _, f := range []ExportFormat{ExportJSON, ExportDOT, ExportTSV} {
		var buf bytes.Buffer
		if err := nw.Export(&buf, f); err != nil {
			t.Fatalf("Export(%v): %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("Export(%v) wrote nothing", f)
		}
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	nw := exportNetwork(t)
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportJSON); err != nil {
		t.Fatal(err)
	}
	var decoded Network
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.N() != nw.N() || len(decoded.Links) != len(nw.Links) {
		t.Fatalf("round trip lost data: %d/%d PoPs, %d/%d links",
			decoded.N(), nw.N(), len(decoded.Links), len(nw.Links))
	}
	if decoded.Cost.Total != nw.Cost.Total {
		t.Fatalf("cost changed in round trip: %v vs %v", decoded.Cost.Total, nw.Cost.Total)
	}
}

func TestExportUnknownFormat(t *testing.T) {
	nw := exportNetwork(t)
	var buf bytes.Buffer
	if err := nw.Export(&buf, ExportFormat(99)); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestParseExportFormat(t *testing.T) {
	cases := []struct {
		name    string
		want    ExportFormat
		wantErr bool
	}{
		{"json", ExportJSON, false},
		{"dot", ExportDOT, false},
		{"tsv", ExportTSV, false},
		{"JSON", ExportJSON, false}, // case insensitive
		{"Dot", ExportDOT, false},
		{"xml", 0, true},
		{"", 0, true},
		{"jsonl", 0, true},
		{"ExportFormat(99)", 0, true}, // unknown String() must NOT round-trip
	}
	for _, c := range cases {
		got, err := ParseExportFormat(c.name)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseExportFormat(%q) should be rejected", c.name)
				continue
			}
			// The error must name every valid format.
			for _, valid := range []string{"json", "dot", "tsv"} {
				if !strings.Contains(err.Error(), valid) {
					t.Errorf("ParseExportFormat(%q) error %q does not list %q", c.name, err, valid)
				}
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseExportFormat(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	// String and ParseExportFormat round-trip for every defined format.
	for _, f := range []ExportFormat{ExportJSON, ExportDOT, ExportTSV} {
		back, err := ParseExportFormat(f.String())
		if err != nil || back != f {
			t.Errorf("round trip %v -> %q -> %v, %v", f, f.String(), back, err)
		}
	}
	if !strings.HasPrefix(ExportFormat(99).String(), "ExportFormat(") {
		t.Error("unknown format String() should be diagnostic")
	}
}
