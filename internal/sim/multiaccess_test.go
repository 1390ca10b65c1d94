package sim

import (
	"net/netip"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// TestMultiAccessSegment: three routers on one /24 become a pairwise
// clique, and traffic crosses the segment in one hop.
func TestMultiAccessSegment(t *testing.T) {
	cfg := config.NewNetwork()
	lan := netip.MustParsePrefix("10.50.0.0/24")
	for i, name := range []string{"ra", "rb", "rc"} {
		d := &config.Device{Hostname: name, Kind: config.RouterKind}
		d.OSPF = &config.OSPF{ProcessID: 1, InFilters: map[string]string{}}
		d.Interfaces = append(d.Interfaces, &config.Interface{
			Name: "Ethernet0/0",
			Addr: netip.PrefixFrom(lan.Addr().Next(), 24),
		})
		// distinct addresses .1 .2 .3
		a := lan.Addr()
		for j := 0; j <= i; j++ {
			a = a.Next()
		}
		d.Interfaces[0].Addr = netip.PrefixFrom(a, 24)
		d.OSPF.Networks = append(d.OSPF.Networks, lan)
		cfg.Add(d)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 pairwise links on the shared segment.
	if len(n.Links) != 3 {
		t.Fatalf("links = %d, want 3 (clique)", len(n.Links))
	}
	g := n.Topology()
	for _, e := range [][2]string{{"ra", "rb"}, {"rb", "rc"}, {"ra", "rc"}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing clique edge %v", e)
		}
	}
}

// TestParallelLinks: two /31s between the same pair of routers yield two
// links and ECMP across both.
func TestParallelLinks(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2")
	b.Link("r1", "r2").Link("r1", "r2")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	routerLinks := 0
	for _, l := range n.Links {
		if cfg.Device(l.A.Device).Kind == config.RouterKind && cfg.Device(l.B.Device).Kind == config.RouterKind {
			routerLinks++
		}
	}
	if routerLinks != 2 {
		t.Fatalf("router links = %d, want 2 (parallel)", routerLinks)
	}
	snap := SimulateNet(n)
	rt := snap.FIB("r1")[n.HostPrefix["h2"]]
	if rt == nil || len(rt.NextHops) != 2 {
		t.Fatalf("expected ECMP over parallel links, got %v", rt)
	}
	// The trace still shows a single device-level path (both branches
	// traverse the same routers).
	ps := snap.TraceFrom("h1", "h2")
	for _, p := range ps {
		if p.Status != Delivered {
			t.Fatalf("bad path %v", p)
		}
	}
}

// TestUnaddressedInterfacesIgnored: interfaces without addresses form no
// links and crash nothing.
func TestUnaddressedInterfacesIgnored(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2")
	b.Link("r1", "r2")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device("r1").Interfaces = append(cfg.Device("r1").Interfaces,
		&config.Interface{Name: "Shutdown0/9"})
	snap := mustSim(t, cfg)
	singleDelivered(t, snap, "h1", "h2")
}

// TestAsymmetricCostsAsymmetricPaths: forward and reverse paths may
// legitimately differ when per-direction costs differ; both must be
// preserved by their own FIBs.
func TestAsymmetricCostsAsymmetricPaths(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3")
	// r1→r3 direct is cheap one way, expensive the other.
	b.LinkCost("r1", "r3", 1, 50)
	b.LinkCost("r1", "r2", 5, 5)
	b.LinkCost("r2", "r3", 5, 5)
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg)
	fwd := singleDelivered(t, s, "h1", "h3")
	back := singleDelivered(t, s, "h3", "h1")
	if !pathEquals(fwd, "h1", "r1", "r3", "h3") {
		t.Fatalf("forward = %v", fwd.Hops)
	}
	if !pathEquals(back, "h3", "r3", "r2", "r1", "h1") {
		t.Fatalf("reverse = %v", back.Hops)
	}
}
