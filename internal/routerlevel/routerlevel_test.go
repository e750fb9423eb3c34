package routerlevel

import (
	"testing"

	cold "github.com/networksynth/cold"
)

func testNetwork(t *testing.T) *cold.Network {
	t.Helper()
	nw, err := cold.Generate(cold.Config{
		NumPoPs: 12,
		Seed:    5,
		Params:  cold.Params{K0: 10, K1: 1, K2: 1e-4, K3: 50},
		Optimizer: cold.OptimizerSpec{
			PopulationSize: 30, Generations: 25, SeedWithHeuristics: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestExpandBasics(t *testing.T) {
	nw := testNetwork(t)
	rn, err := Expand(nw, DefaultTemplate(50000))
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Validate(); err != nil {
		t.Fatal(err)
	}
	if rn.NumRouters() < nw.N() {
		t.Fatalf("only %d routers for %d PoPs", rn.NumRouters(), nw.N())
	}
	if !rn.IsConnected() {
		t.Fatal("router-level network disconnected")
	}
	// Every PoP has at least one router; core lists populated.
	for p := 0; p < nw.N(); p++ {
		if len(rn.RoutersIn(p)) == 0 {
			t.Fatalf("PoP %d has no routers", p)
		}
		if len(rn.CoreOf[p]) == 0 || len(rn.CoreOf[p]) > 2 {
			t.Fatalf("PoP %d has %d cores", p, len(rn.CoreOf[p]))
		}
	}
	// Inter-PoP links match the PoP-level link count.
	inter := 0
	for _, l := range rn.Links {
		if l.InterPoP {
			inter++
		}
	}
	if inter != len(nw.Links) {
		t.Fatalf("%d inter-PoP router links for %d PoP links", inter, len(nw.Links))
	}
}

func TestMoreTrafficMoreRouters(t *testing.T) {
	nw := testNetwork(t)
	small, err := Expand(nw, DefaultTemplate(1e9)) // everything fits one router
	if err != nil {
		t.Fatal(err)
	}
	big, err := Expand(nw, DefaultTemplate(5000)) // many access routers
	if err != nil {
		t.Fatal(err)
	}
	if big.NumRouters() <= small.NumRouters() {
		t.Errorf("lower capacity (%d routers) should need more than higher capacity (%d)",
			big.NumRouters(), small.NumRouters())
	}
}

func TestSingleRouterLeaves(t *testing.T) {
	nw := testNetwork(t)
	degree := make([]int, nw.N())
	for _, l := range nw.Links {
		degree[l.A]++
		degree[l.B]++
	}
	rn, err := Expand(nw, Template{RouterCapacity: 1e9, RedundantCore: true, SingleRouterLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nw.N(); p++ {
		if degree[p] == 1 && len(rn.RoutersIn(p)) != 1 {
			t.Errorf("leaf PoP %d has %d routers, want 1", p, len(rn.RoutersIn(p)))
		}
	}
	// Without the option, leaves get the full template.
	rn2, err := Expand(nw, Template{RouterCapacity: 1e9, RedundantCore: true})
	if err != nil {
		t.Fatal(err)
	}
	if rn2.NumRouters() <= rn.NumRouters() {
		t.Error("disabling SingleRouterLeaves should add routers")
	}
}

func TestNonRedundantCore(t *testing.T) {
	nw := testNetwork(t)
	rn, err := Expand(nw, Template{RouterCapacity: 50000, RedundantCore: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.Validate(); err != nil {
		t.Fatal(err)
	}
	for p := range rn.CoreOf {
		if len(rn.CoreOf[p]) != 1 {
			t.Fatalf("PoP %d has %d cores, want 1", p, len(rn.CoreOf[p]))
		}
	}
}

func TestDualHoming(t *testing.T) {
	nw := testNetwork(t)
	rn, err := Expand(nw, Template{RouterCapacity: 5000, RedundantCore: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every access router must link to both cores of its PoP.
	linkCount := map[int]int{}
	for _, l := range rn.Links {
		if !l.InterPoP {
			if rn.Routers[l.A].Role == RoleAccess {
				linkCount[l.A]++
			}
			if rn.Routers[l.B].Role == RoleAccess {
				linkCount[l.B]++
			}
		}
	}
	for _, r := range rn.Routers {
		if r.Role == RoleAccess && linkCount[r.ID] != 2 {
			t.Fatalf("access router %d has %d uplinks, want 2", r.ID, linkCount[r.ID])
		}
	}
}

func TestExpandErrors(t *testing.T) {
	nw := testNetwork(t)
	if _, err := Expand(nw, Template{RouterCapacity: 0}); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := Expand(nw, Template{RouterCapacity: -5}); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestRoleString(t *testing.T) {
	if RoleCore.String() != "core" || RoleAccess.String() != "access" {
		t.Error("role strings wrong")
	}
	if Role(9).String() != "role(9)" {
		t.Error("unknown role string wrong")
	}
}
