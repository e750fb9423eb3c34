package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/cost"
	"github.com/networksynth/cold/internal/geom"
	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/metrics"
	"github.com/networksynth/cold/internal/traffic"
)

var newline = []byte{'\n'}

// costParams are the library's default cost coefficients, which every
// workload uses.
func costParams() cost.Params {
	p := cold.DefaultParams()
	return cost.Params{K0: p.K0, K1: p.K1, K2: p.K2, K3: p.K3}
}

// verifyNetwork checks one exported network line without trusting the
// generator. The line must be the canonical encoding of the network it
// decodes to (so a flipped byte that still parses is caught), describe a
// connected network on n PoPs whose demand is the gravity matrix of its
// populations, and carry exactly the links, capacities, cost breakdown and
// statistics that a fresh evaluation of its own context gives; in
// particular Evaluate(best).Total must equal Network.Cost.Total.
func verifyNetwork(line []byte, n int) error {
	var nw cold.Network
	if err := json.Unmarshal(line, &nw); err != nil {
		return fmt.Errorf("decoding network: %w", err)
	}
	again, err := json.Marshal(&nw)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, line) {
		return errors.New("line is not the canonical encoding of its network")
	}
	if nw.N() != n || len(nw.Populations) != n || len(nw.Demand) != n {
		return fmt.Errorf("%d points, %d populations, %d demand rows; want %d PoPs",
			nw.N(), len(nw.Populations), len(nw.Demand), n)
	}
	edges := make([][2]int, len(nw.Links))
	for i, l := range nw.Links {
		edges[i] = [2]int{l.A, l.B}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return err
	}
	if !g.IsConnected() {
		return errors.New("network is not connected")
	}
	tm := traffic.Gravity(nw.Populations, traffic.DefaultGravityScale)
	for i, row := range nw.Demand {
		if len(row) != n {
			return fmt.Errorf("demand row %d has %d entries", i, len(row))
		}
		for j, v := range row {
			if v != tm.Demand[i][j] {
				return fmt.Errorf("demand[%d][%d] = %v, gravity model gives %v", i, j, v, tm.Demand[i][j])
			}
		}
	}
	pts := make([]geom.Point, n)
	for i, p := range nw.Points {
		pts[i] = geom.Point{X: p.X, Y: p.Y}
	}
	ev, err := cost.NewEvaluator(geom.DistanceMatrix(pts), tm, costParams())
	if err != nil {
		return err
	}
	e := ev.Evaluate(g)
	want := cold.CostBreakdown{Total: e.Total, Existence: e.ExistenceCost, Length: e.LengthCost,
		Bandwidth: e.BandwidthCost, Node: e.NodeCost}
	if nw.Cost != want {
		return fmt.Errorf("recorded cost %+v, evaluation gives %+v", nw.Cost, want)
	}
	if len(e.Edges) != len(nw.Links) {
		return fmt.Errorf("%d links recorded, %d distinct", len(nw.Links), len(e.Edges))
	}
	for i, l := range nw.Links {
		if l != (cold.Link{A: e.Edges[i].I, B: e.Edges[i].J, Length: e.Lengths[i], Capacity: e.Capacities[i]}) {
			return fmt.Errorf("link %d is %+v, evaluation gives %v length %v capacity %v",
				i, l, e.Edges[i], e.Lengths[i], e.Capacities[i])
		}
	}
	s := metrics.Summarize(g)
	if got := nw.Stats(); got != (cold.Stats{NumPoPs: s.N, NumLinks: s.Edges, AverageDegree: s.AverageDegree,
		DegreeCV: s.DegreeCV, Diameter: s.Diameter, Clustering: s.Clustering, Hubs: s.Hubs,
		Leaves: s.Leaves, AvgPathLen: s.AvgPathLen}) {
		return fmt.Errorf("recorded statistics %+v differ from the network's", got)
	}
	return nil
}

// verifyArtifact checks a JSONL artifact of count networks on n PoPs.
func verifyArtifact(data []byte, count, n int) error {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return errors.New("artifact does not end in a newline")
	}
	lines := bytes.Split(data[:len(data)-1], newline)
	if len(lines) != count {
		return fmt.Errorf("artifact has %d networks, want %d", len(lines), count)
	}
	for i, line := range lines {
		if err := verifyNetwork(line, n); err != nil {
			return fmt.Errorf("network %d: %w", i, err)
		}
	}
	return nil
}

// jsonl joins network lines into the artifact form coldd stores.
func jsonl(lines [][]byte) []byte {
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l)
		buf.Write(newline)
	}
	return buf.Bytes()
}
