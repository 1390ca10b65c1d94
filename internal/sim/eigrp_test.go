package sim

import (
	"testing"

	"confmask/internal/netgen"
)

func eigrpTriangle(t *testing.T) *Snapshot {
	t.Helper()
	b := netgen.NewBuilder(netgen.EIGRP)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3").Link("r1", "r3")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mustSim(t, cfg)
}

func TestEIGRPDirectPath(t *testing.T) {
	s := eigrpTriangle(t)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r3", "h3") {
		t.Fatalf("EIGRP path = %v", p.Hops)
	}
	// The installed route must be an EIGRP route.
	rt := s.FIB("r1")[s.Net.HostPrefix["h3"]]
	if rt == nil || rt.Source != SrcEIGRP {
		t.Fatalf("route = %v, want eigrp", rt)
	}
}

func TestEIGRPDelayMetric(t *testing.T) {
	b := netgen.NewBuilder(netgen.EIGRP)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3").Link("r1", "r3")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Penalize the direct r1→r3 interface: the two-hop path through r2
	// becomes cheaper (10+10+last-hop < 100+last-hop).
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := n.LinkBetween("r1", "r3")
	local, _ := l.Local("r1")
	cfg.Device("r1").Interface(local.Iface).Delay = 100
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r2", "r3", "h3") {
		t.Fatalf("delay-steered path = %v", p.Hops)
	}
	// The reverse direction still uses the direct link: delay is applied
	// on the receiving interface only.
	back := singleDelivered(t, s, "h3", "h1")
	if !pathEquals(back, "h3", "r3", "r1", "h1") {
		t.Fatalf("reverse path = %v", back.Hops)
	}
}

func TestEIGRPFilterDivertsRoute(t *testing.T) {
	b := netgen.NewBuilder(netgen.EIGRP)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3").Link("r1", "r3")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h3 := n.HostPrefix["h3"]
	l := n.LinkBetween("r1", "r3")
	local, _ := l.Local("r1")
	r1 := cfg.Device("r1")
	r1.EnsurePrefixList("F").Deny(h3)
	r1.EIGRP.InFilters[local.Iface] = "F"
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r2", "r3", "h3") {
		t.Fatalf("filtered EIGRP path = %v", p.Hops)
	}
}

func TestEIGRPECMP(t *testing.T) {
	b := netgen.NewBuilder(netgen.EIGRP)
	b.Router("r1").Router("r2").Router("r3").Router("r4")
	b.Link("r1", "r2").Link("r2", "r4").Link("r1", "r3").Link("r3", "r4")
	b.Host("hs", "r1").Host("hd", "r4")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg)
	ps := s.TraceFrom("hs", "hd")
	if len(ps) != 2 {
		t.Fatalf("expected 2 equal-metric EIGRP paths, got %v", ps)
	}
}

func TestEIGRPRoundTripThroughText(t *testing.T) {
	b := netgen.NewBuilder(netgen.EIGRP)
	b.Router("r1").Router("r2")
	b.Link("r1", "r2")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device("r1").Interfaces[0].Delay = 25
	s1 := mustSim(t, cfg)
	reparsed := mustParse(t, cfg)
	s2 := mustSim(t, reparsed)
	hosts := cfg.Hosts()
	if d := tracedDiff(s1, s2, hosts); len(d) != 0 {
		t.Fatalf("EIGRP data plane changed across render/parse round trip: %v", d)
	}
	if reparsed.Device("r1").Interfaces[0].Delay != 25 {
		t.Fatal("delay lost in round trip")
	}
	if reparsed.Device("r1").EIGRP == nil || reparsed.Device("r1").EIGRP.ASN != 100 {
		t.Fatal("EIGRP process lost in round trip")
	}
}
