// Router level: COLD's layered design. The PoP level is optimized; PoP
// internals follow templates (cheap intra-PoP links need no optimization).
// This example expands a synthesized PoP-level network into a router-level
// topology: redundant core pairs, traffic-sized access routers, dual
// homing — the structural generation the paper defers to templated design.
//
//	go run ./examples/routerlevel
package main

import (
	"fmt"
	"log"

	cold "github.com/networksynth/cold"
	"github.com/networksynth/cold/internal/routerlevel"
)

func main() {
	net, err := cold.Generate(cold.Config{
		NumPoPs: 15,
		Params:  cold.Params{K0: 10, K1: 1, K2: 1e-4, K3: 50},
		Seed:    3,
		Optimizer: cold.OptimizerSpec{
			PopulationSize:     60,
			Generations:        60,
			SeedWithHeuristics: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	st := net.Stats()
	fmt.Printf("PoP level: %d PoPs, %d links, %d hubs, %d leaves\n\n",
		st.NumPoPs, st.NumLinks, st.Hubs, st.Leaves)

	// One access router per 20k units of traffic; redundant cores;
	// single-router leaf PoPs.
	rn, err := routerlevel.Expand(net, routerlevel.DefaultTemplate(20000))
	if err != nil {
		log.Fatal(err)
	}
	if err := rn.Validate(); err != nil {
		log.Fatal(err)
	}

	inter, intra := 0, 0
	for _, l := range rn.Links {
		if l.InterPoP {
			inter++
		} else {
			intra++
		}
	}
	fmt.Printf("Router level: %d routers, %d links (%d inter-PoP, %d intra-PoP)\n",
		rn.NumRouters(), len(rn.Links), inter, intra)
	fmt.Printf("connected: %v\n\n", rn.IsConnected())

	fmt.Println("Per-PoP templates (traffic decides the router count):")
	for p := 0; p < net.N(); p++ {
		routers := rn.RoutersIn(p)
		cores := len(rn.CoreOf[p])
		kind := "core PoP "
		if len(routers) == 1 {
			kind = "leaf PoP "
		}
		var demand float64
		for j := 0; j < net.N(); j++ {
			if j != p {
				demand += net.Demand[p][j]
			}
		}
		fmt.Printf("  PoP %2d  %s  traffic %8.0f  →  %d routers (%d core, %d access)\n",
			p, kind, demand, len(routers), cores, len(routers)-cores)
	}

	fmt.Println("\nNote the Pareto-style spread: the same PoP-level design yields")
	fmt.Println("very different router counts once per-PoP traffic is applied —")
	fmt.Println("the paper's reason to start synthesis at the PoP level.")
}
