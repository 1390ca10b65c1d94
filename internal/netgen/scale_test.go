package netgen

import (
	"fmt"
	"testing"

	"confmask/internal/sim"
)

// TestFatTreeInvariants pins the closed-form counts of fatTree(k, c):
// c core + k·(k/2) aggregation + k·(k/2) edge routers, two hosts per edge
// router, and k·(k/2)² edge-agg + k·(k/2)·(c/2) agg-core + k² host links.
func TestFatTreeInvariants(t *testing.T) {
	for _, tc := range []struct{ k, c int }{{4, 4}, {8, 8}, {16, 16}} {
		tc := tc
		t.Run(fmt.Sprintf("k%d", tc.k), func(t *testing.T) {
			t.Parallel()
			cfg, err := fatTree(tc.k, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			n, err := sim.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := n.Topology()
			half := tc.k / 2
			wantR := tc.c + 2*tc.k*half
			wantH := 2 * tc.k * half
			wantE := tc.k*half*half + tc.k*half*(tc.c/2) + wantH
			if got := len(cfg.Routers()); got != wantR {
				t.Errorf("routers = %d, want %d", got, wantR)
			}
			if got := len(cfg.Hosts()); got != wantH {
				t.Errorf("hosts = %d, want %d", got, wantH)
			}
			if got := g.NumEdges(); got != wantE {
				t.Errorf("links = %d, want %d", got, wantE)
			}
			if !g.RouterSubgraph().Connected() {
				t.Error("router graph disconnected")
			}
		})
	}
}

// TestMultiRegionInvariants pins the multi-region generator's counts:
// every link-placement loop retries until its quota of distinct links is
// placed, so the totals are exact, not probabilistic.
func TestMultiRegionInvariants(t *testing.T) {
	for _, tc := range []struct {
		regions, perRegion, hosts int
		seed                      int64
	}{
		{10, 30, 10, 0x4E57}, // MultiRegion10x30
		{32, 32, 4, 0x7A11},  // MultiRegion32x32
		{4, 12, 6, 42},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d", tc.regions, tc.perRegion), func(t *testing.T) {
			t.Parallel()
			cfg, err := multiRegion(tc.regions, tc.perRegion, tc.hosts, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			n, err := sim.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := n.Topology()
			interior := tc.perRegion - 1
			uplinks := (interior-1)/3 + 1 // i = 1, 4, 7, ...
			perRegionLinks := interior + uplinks + interior/6
			wantE := tc.regions*perRegionLinks + tc.regions + tc.regions/3 + tc.regions*tc.hosts
			if got := len(cfg.Routers()); got != tc.regions*tc.perRegion {
				t.Errorf("routers = %d, want %d", got, tc.regions*tc.perRegion)
			}
			if got := len(cfg.Hosts()); got != tc.regions*tc.hosts {
				t.Errorf("hosts = %d, want %d", got, tc.regions*tc.hosts)
			}
			if got := g.NumEdges(); got != wantE {
				t.Errorf("links = %d, want %d", got, wantE)
			}
			if !g.RouterSubgraph().Connected() {
				t.Error("router graph disconnected")
			}
		})
	}
}

// TestScaleCatalogReachability asserts pairwise reachability on the
// data plane of the scale networks small enough for CI: every sampled
// ordered host pair has only delivered paths. The thousand-router entries
// are covered at build level by the invariant tests.
func TestScaleCatalogReachability(t *testing.T) {
	for _, spec := range ScaleCatalog() {
		if spec.Name == "FatTree32" || spec.Name == "MultiRegion32x32" {
			continue // thousand-router scale: benchmark territory, not unit tests
		}
		if testing.Short() && spec.Name != "MultiRegion10x30" {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hosts := cfg.Hosts()
			stride := 1
			if len(hosts) > 20 {
				stride = 7
			}
			for i := 0; i < len(hosts); i += stride {
				for j := 0; j < len(hosts); j += stride {
					if i == j {
						continue
					}
					ps := snap.TraceFrom(hosts[i], hosts[j])
					ok := false
					for _, p := range ps {
						if p.Status == sim.Delivered {
							ok = true
						} else {
							t.Fatalf("%s→%s has non-delivered path %v", hosts[i], hosts[j], p)
						}
					}
					if !ok {
						t.Fatalf("%s→%s unreachable", hosts[i], hosts[j])
					}
				}
			}
		})
	}
}

// TestMultiRegionDeterministic pins byte-identical regeneration.
func TestMultiRegionDeterministic(t *testing.T) {
	a, err := MultiRegion10x30()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiRegion10x30()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Render(), b.Render()
	if len(ra) != len(rb) {
		t.Fatal("device sets differ across builds")
	}
	for name, text := range ra {
		if rb[name] != text {
			t.Fatalf("device %s differs across builds", name)
		}
	}
}

// TestMultiRegionErrors covers the parameter guard.
func TestMultiRegionErrors(t *testing.T) {
	if _, err := multiRegion(1, 30, 2, 1); err == nil {
		t.Fatal("expected error for a single region")
	}
	if _, err := multiRegion(4, 3, 2, 1); err == nil {
		t.Fatal("expected error for tiny regions")
	}
}

// TestScaleByID makes the scale networks addressable like the Table 2
// catalog entries.
func TestScaleByID(t *testing.T) {
	for _, want := range []string{"FatTree16", "S2", "MultiRegion32x32"} {
		if _, err := ByID(want); err != nil {
			t.Fatalf("ByID(%q): %v", want, err)
		}
	}
}
