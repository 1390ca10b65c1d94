package netgen

import (
	"testing"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// wantCounts is Table 2 of the paper.
var wantCounts = map[string]struct{ R, H, E int }{
	"A": {10, 8, 26},
	"B": {13, 8, 25},
	"C": {11, 9, 22},
	"D": {49, 98, 162},
	"E": {86, 68, 169},
	"F": {161, 58, 378},
	"G": {20, 16, 48},
	"H": {72, 64, 320},
}

func TestCatalogMatchesTable2(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.ID+"-"+spec.Name, func(t *testing.T) {
			cfg, err := spec.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			n, err := sim.Build(cfg)
			if err != nil {
				t.Fatalf("sim build: %v", err)
			}
			g := n.Topology()
			want := wantCounts[spec.ID]
			if got := len(cfg.Routers()); got != want.R {
				t.Errorf("routers = %d, want %d", got, want.R)
			}
			if got := len(cfg.Hosts()); got != want.H {
				t.Errorf("hosts = %d, want %d", got, want.H)
			}
			if got := g.NumEdges(); got != want.E {
				t.Errorf("links = %d, want %d", got, want.E)
			}
			if !g.RouterSubgraph().Connected() {
				t.Error("router graph disconnected")
			}
		})
	}
}

func TestCatalogFullReachability(t *testing.T) {
	for _, spec := range Catalog() {
		if spec.ID == "F" && testing.Short() {
			continue
		}
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hosts := cfg.Hosts()
			// Sample pairs for the big networks; all pairs for small.
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

func TestZooNetDeterministic(t *testing.T) {
	a, err := Bics()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bics()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Render(), b.Render()
	for name, text := range ra {
		if rb[name] != text {
			t.Fatalf("device %s differs across builds", name)
		}
	}
}

func TestZooNetEdgeCountError(t *testing.T) {
	if _, err := zooNet(10, 5, 3, 1); err == nil {
		t.Fatal("expected error when links < ring size")
	}
}

func TestFatTreeECMP(t *testing.T) {
	cfg, err := FatTree04()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod traffic in a fat-tree must load-balance over multiple
	// equal-cost paths.
	ps := snap.TraceFrom("h0-0-0", "h3-1-1")
	if len(ps) < 2 {
		t.Fatalf("expected ECMP across pods, got %d paths", len(ps))
	}
	for _, p := range ps {
		if p.Status != sim.Delivered {
			t.Fatalf("bad path %v", p)
		}
	}
	// Same-edge traffic stays local.
	local := snap.TraceFrom("h0-0-0", "h0-0-1")
	if len(local) != 1 || len(local[0].Hops) != 3 {
		t.Fatalf("same-edge path = %v", local)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("FatTree04"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(OSPF)
	b.Router("r1").Router("r1")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate router accepted")
	}
	b2 := NewBuilder(BGPOSPF)
	b2.RouterAS("r1", 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("BGP router without ASN accepted")
	}
	b3 := NewBuilder(OSPF)
	b3.Link("missing", "also-missing")
	if _, err := b3.Build(); err == nil {
		t.Fatal("link between unknown routers accepted")
	}
}

func TestHostPrefixOf(t *testing.T) {
	cfg, err := Enterprise()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := HostPrefixOf(cfg, "h1"); !ok {
		t.Fatal("host prefix missing")
	}
	if _, ok := HostPrefixOf(cfg, "r1"); ok {
		t.Fatal("router should not have a host prefix")
	}
	if _, ok := HostPrefixOf(cfg, "nope"); ok {
		t.Fatal("unknown device should not have a host prefix")
	}
}

func TestSmallCatalog(t *testing.T) {
	small := SmallCatalog()
	if len(small) != 4 {
		t.Fatalf("small catalog = %d entries", len(small))
	}
	want := map[string]bool{"A": true, "B": true, "C": true, "G": true}
	for _, s := range small {
		if !want[s.ID] {
			t.Fatalf("unexpected entry %s", s.ID)
		}
	}
}

func TestEIGRPBuilder(t *testing.T) {
	b := NewBuilder(EIGRP)
	b.Router("r1").Router("r2")
	b.Link("r1", "r2")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.Device("r1")
	if d.EIGRP == nil || d.EIGRP.ASN != 100 {
		t.Fatalf("EIGRP process missing: %+v", d)
	}
	if len(d.EIGRP.Networks) != 2 { // link + host LAN
		t.Fatalf("EIGRP networks = %v", d.EIGRP.Networks)
	}
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := snap.TraceFrom("h1", "h2")
	if len(ps) != 1 || ps[0].Status != sim.Delivered {
		t.Fatalf("EIGRP network unreachable: %v", ps)
	}
}

func TestGeneratedConfigsParse(t *testing.T) {
	cfg, err := University()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := config.ParseNetwork(cfg.Render())
	if err != nil {
		t.Fatalf("generated configs do not parse: %v", err)
	}
	if len(parsed.Devices) != len(cfg.Devices) {
		t.Fatalf("device count changed across parse")
	}
}
