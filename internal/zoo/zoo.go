// Package zoo provides a synthetic stand-in for the Internet Topology Zoo
// dataset [16 in the paper], which COLD uses as its reference range for
// real PoP-level networks (Figure 8a and the tunability targets of §6).
//
// The real Zoo is a collection of operator-published maps that we cannot
// ship; instead this package generates a deterministic ensemble of
// PoP-level graphs from archetypes observed in that dataset — hub-and-spoke
// networks, trees, rings, rings with chords, partial meshes and small dense
// networks — with mixture weights calibrated to the summary statistics the
// paper reports: roughly 15% of networks with a coefficient of variation of
// node degree (CVND) above 1, maximum CVND around 2, and 90% of global
// clustering coefficients below 0.25 (high clustering confined to very
// small networks). See DESIGN.md ("Substitutions") for the rationale.
package zoo

import (
	"math/rand"

	"github.com/networksynth/cold/internal/graph"
	"github.com/networksynth/cold/internal/metrics"
)

// Network is one synthetic "operator" topology.
type Network struct {
	Name  string
	Graph *graph.Graph
}

// DefaultSize is the ensemble size, comparable to the Zoo's ~250 maps.
const DefaultSize = 250

// DefaultSeed fixes the default ensemble so experiments are reproducible.
const DefaultSeed = 20141202 // CoNEXT'14 conference date

// DefaultEnsemble returns the standard ensemble: DefaultSize networks from
// the calibrated archetype mixture with a fixed seed.
func DefaultEnsemble() []Network {
	return Ensemble(DefaultSize, rand.New(rand.NewSource(DefaultSeed)))
}

// Ensemble generates size networks from the archetype mixture.
func Ensemble(size int, rng *rand.Rand) []Network {
	nets := make([]Network, 0, size)
	for i := 0; i < size; i++ {
		nets = append(nets, sample(rng))
	}
	return nets
}

// sample draws one network from the mixture. Weights are calibrated to the
// Zoo's published summary statistics (see package comment).
func sample(rng *rand.Rand) Network {
	switch r := rng.Float64(); {
	case r < 0.09: // strong hub-and-spoke: CVND well above 1
		n := 12 + rng.Intn(10) // 12..21: CVND ~1.6..2.2
		return Network{Name: "hub-and-spoke", Graph: Star(n)}
	case r < 0.17: // two-hub variants: CVND straddles 1
		n := 8 + rng.Intn(8)
		return Network{Name: "double-star", Graph: DoubleStar(n, rng)}
	case r < 0.45: // sparse trees
		n := 8 + rng.Intn(30)
		return Network{Name: "tree", Graph: RandomTree(n, rng)}
	case r < 0.60: // rings
		n := 6 + rng.Intn(20)
		return Network{Name: "ring", Graph: Ring(n)}
	case r < 0.80: // rings with a few chords
		n := 8 + rng.Intn(25)
		return Network{Name: "ring-chords", Graph: RingWithChords(n, 1+rng.Intn(3), rng)}
	case r < 0.93: // partial meshes
		n := 10 + rng.Intn(30)
		return Network{Name: "mesh", Graph: PartialMesh(n, 2.8, rng)}
	default: // small dense networks: the only high-clustering cases
		n := 5 + rng.Intn(4) // 5..8
		return Network{Name: "small-dense", Graph: Dense(n, rng)}
	}
}

// Star returns the n-node hub-and-spoke network.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// DoubleStar returns a network with two linked hubs and the remaining
// nodes attached to a random hub.
func DoubleStar(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if n < 2 {
		return g
	}
	g.AddEdge(0, 1)
	for v := 2; v < n; v++ {
		g.AddEdge(v, rng.Intn(2))
	}
	return g
}

// RandomTree returns a uniform random recursive tree: node v attaches to a
// uniformly chosen earlier node.
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	return g
}

// Ring returns the n-cycle.
func Ring(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// RingWithChords returns the n-cycle plus `chords` random non-ring links,
// clamped to the number of absent pairs (a small ring runs out of chords:
// the 4-ring has only its two diagonals).
func RingWithChords(n, chords int, rng *rand.Rand) *graph.Graph {
	g := Ring(n)
	addRandomAbsent(g, chords, rng)
	return g
}

// PartialMesh returns a connected sparse random graph with the given
// average degree: a random tree backbone plus random extra links, clamped
// to the complete graph when avgDegree asks for more.
func PartialMesh(n int, avgDegree float64, rng *rand.Rand) *graph.Graph {
	g := RandomTree(n, rng)
	wantEdges := int(avgDegree * float64(n) / 2)
	addRandomAbsent(g, wantEdges-g.NumEdges(), rng)
	return g
}

// addRandomAbsent adds min(count, feasible) uniformly drawn absent links
// to g: enumerate the absent pairs once and draw by partial Fisher–Yates.
// The old rejection loops spun forever when count exceeded the absent
// pairs and degenerated near the complete graph; this is deterministically
// bounded (the same fix as the GA's linkMutation).
func addRandomAbsent(g *graph.Graph, count int, rng *rand.Rand) {
	if count <= 0 {
		return
	}
	n := g.N()
	var pairs []int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HasEdge(i, j) {
				pairs = append(pairs, i*n+j)
			}
		}
	}
	count = min(count, len(pairs))
	for k := 0; k < count; k++ {
		m := k + rng.Intn(len(pairs)-k)
		pairs[k], pairs[m] = pairs[m], pairs[k]
		g.AddEdge(pairs[k]/n, pairs[k]%n)
	}
}

// Dense returns a small dense network: a connected ER graph with p = 0.7.
func Dense(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.7 {
				g.AddEdge(i, j)
			}
		}
	}
	// A handful of isolated nodes are possible; chain them in to keep the
	// "operator network" premise (data networks are connected).
	comps := g.Components()
	for k := 1; k < len(comps); k++ {
		g.AddEdge(comps[0][0], comps[k][0])
	}
	return g
}

// CVNDs returns the coefficient of variation of node degree of every
// network in the ensemble — the distribution Figure 8a plots.
func CVNDs(nets []Network) []float64 {
	out := make([]float64, len(nets))
	for i, n := range nets {
		out[i] = metrics.DegreeCV(n.Graph)
	}
	return out
}

// Clusterings returns the global clustering coefficient of every network.
func Clusterings(nets []Network) []float64 {
	out := make([]float64, len(nets))
	for i, n := range nets {
		out[i] = metrics.GlobalClustering(n.Graph)
	}
	return out
}

// Graphs strips the names off an ensemble — the shape the validation
// pipeline's reference sources take.
func Graphs(nets []Network) []*graph.Graph {
	out := make([]*graph.Graph, len(nets))
	for i, n := range nets {
		out[i] = n.Graph
	}
	return out
}
