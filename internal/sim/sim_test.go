package sim

import (
	"net/netip"
	"slices"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netbuild"
	"confmask/internal/netgen"
)

// figure2Network reproduces the paper's running example (Fig. 2a): four
// routers where (r1,r3) and (r3,r2) have OSPF cost 1, so traffic h1→h4
// takes the long path (h1,r1,r3,r2,r4,h4) instead of (h1,r1,r2,r4,h4).
func figure2Network(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3").Router("r4")
	b.LinkCost("r1", "r3", 1, 1)
	b.LinkCost("r3", "r2", 1, 1)
	b.Link("r1", "r2")
	b.Link("r2", "r4")
	b.Host("h1", "r1").Host("h2", "r2").Host("h4", "r4")
	cfg, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return cfg
}

func mustParse(t *testing.T, cfg *config.Network) *config.Network {
	t.Helper()
	out, err := config.ParseNetwork(cfg.Render())
	if err != nil {
		t.Fatalf("ParseNetwork: %v", err)
	}
	return out
}

func mustSim(t *testing.T, cfg *config.Network) *Snapshot {
	t.Helper()
	s, err := Simulate(cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return s
}

func singleDelivered(t *testing.T, s *Snapshot, src, dst string) Path {
	t.Helper()
	ps := s.TraceFrom(src, dst)
	if len(ps) != 1 || ps[0].Status != Delivered {
		t.Fatalf("Trace(%s,%s) = %v, want one delivered path", src, dst, ps)
	}
	return ps[0]
}

func pathEquals(p Path, hops ...string) bool {
	if len(p.Hops) != len(hops) {
		return false
	}
	for i := range hops {
		if p.Hops[i] != hops[i] {
			return false
		}
	}
	return true
}

func TestOSPFPrefersLowCostPath(t *testing.T) {
	cfg := figure2Network(t)
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h4")
	if !pathEquals(p, "h1", "r1", "r3", "r2", "r4", "h4") {
		t.Fatalf("h1→h4 path = %v", p.Hops)
	}
	back := singleDelivered(t, s, "h4", "h1")
	if !pathEquals(back, "h4", "r4", "r2", "r3", "r1", "h1") {
		t.Fatalf("h4→h1 path = %v", back.Hops)
	}
}

func TestTopologyExtraction(t *testing.T) {
	cfg := figure2Network(t)
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := n.Topology()
	if g.NumNodes() != 7 {
		t.Fatalf("nodes = %d, want 7", g.NumNodes())
	}
	if g.NumEdges() != 7 { // 4 router links + 3 host links
		t.Fatalf("edges = %d, want 7", g.NumEdges())
	}
	if !g.HasEdge("r1", "r3") || !g.HasEdge("r4", "h4") {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge("r1", "r4") {
		t.Fatal("phantom edge r1-r4")
	}
}

func TestOSPFECMP(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3").Router("r4")
	b.Link("r1", "r2").Link("r2", "r4").Link("r1", "r3").Link("r3", "r4")
	b.Host("hs", "r1").Host("hd", "r4")
	s := mustSim(t, b.MustBuild())
	ps := s.TraceFrom("hs", "hd")
	if len(ps) != 2 {
		t.Fatalf("expected 2 ECMP paths, got %v", ps)
	}
	for _, p := range ps {
		if p.Status != Delivered || len(p.Hops) != 5 {
			t.Fatalf("bad ECMP path %v", p)
		}
	}
}

// TestOSPFFakeLinkMatchedCost reproduces the strawman step of §3.2: a fake
// link with cost equal to the original shortest path cost creates a second
// (equal-cost) path, and a distribute-list filter on the fake interface
// restores the original single path — the SFE "rejected" branch.
func TestOSPFFakeLinkMatchedCost(t *testing.T) {
	cfg := figure2Network(t)
	pool := netbuild.PoolFor(cfg)
	// Original h1→h4 router path r1→r3→r2→r4 costs 1+1+10 = 12.
	if _, err := netbuild.AddP2PLink(cfg, pool, "r1", "r4", netbuild.LinkOpts{CostA: 12, CostB: 12, Injected: true}); err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg)
	ps := s.TraceFrom("h1", "h4")
	if len(ps) != 2 {
		t.Fatalf("expected 2 equal-cost paths after fake link, got %v", ps)
	}

	// Filter the fake next hop on r1 for h4's prefix.
	r1 := cfg.Device("r1")
	var fakeIface string
	for _, i := range r1.Interfaces {
		if i.Injected {
			fakeIface = i.Name
		}
	}
	if fakeIface == "" {
		t.Fatal("fake interface not found")
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h4pfx := n.HostPrefix["h4"]
	pl := r1.EnsurePrefixList("CMFILTER")
	pl.Deny(h4pfx)
	r1.OSPF.InFilters[fakeIface] = "CMFILTER"

	s2 := mustSim(t, cfg)
	p := singleDelivered(t, s2, "h1", "h4")
	if !pathEquals(p, "h1", "r1", "r3", "r2", "r4", "h4") {
		t.Fatalf("filtered path = %v, want original", p.Hops)
	}
}

func TestRIPHopCount(t *testing.T) {
	b := netgen.NewBuilder(netgen.RIP)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3").Link("r1", "r3")
	b.Host("h1", "r1").Host("h3", "r3")
	s := mustSim(t, b.MustBuild())
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r3", "h3") {
		t.Fatalf("RIP path = %v, want direct", p.Hops)
	}
}

func TestRIPFilterDivertsRoute(t *testing.T) {
	b := netgen.NewBuilder(netgen.RIP)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3").Link("r1", "r3")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg := b.MustBuild()
	// Filter h3's prefix on r1's interface toward r3 → r1 must go via r2.
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h3pfx := n.HostPrefix["h3"]
	l := n.LinkBetween("r1", "r3")
	local, _ := l.Local("r1")
	r1 := cfg.Device("r1")
	r1.EnsurePrefixList("F").Deny(h3pfx)
	r1.RIP.InFilters[local.Iface] = "F"
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r2", "r3", "h3") {
		t.Fatalf("filtered RIP path = %v", p.Hops)
	}
}

// bgpChain builds AS1(r1) — AS2(r2a—r2b) — AS3(r3) with hosts at both ends.
func bgpChain(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.BGPOSPF)
	b.RouterAS("r1", 65001)
	b.RouterAS("r2a", 65002).RouterAS("r2b", 65002)
	b.RouterAS("r3", 65003)
	b.Link("r1", "r2a")  // eBGP
	b.Link("r2a", "r2b") // intra-AS OSPF
	b.Link("r2b", "r3")  // eBGP
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestBGPChainForwarding(t *testing.T) {
	s := mustSim(t, bgpChain(t))
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r2a", "r2b", "r3", "h3") {
		t.Fatalf("BGP path = %v", p.Hops)
	}
	back := singleDelivered(t, s, "h3", "h1")
	if !pathEquals(back, "h3", "r3", "r2b", "r2a", "r1", "h1") {
		t.Fatalf("reverse BGP path = %v", back.Hops)
	}
}

func TestBGPPrefersShorterASPath(t *testing.T) {
	cfg := bgpChain(t)
	// Add a direct AS1–AS3 link: AS path length 1 beats 2 via AS2.
	pool := netbuild.PoolFor(cfg)
	if _, err := netbuild.AddP2PLink(cfg, pool, "r1", "r3", netbuild.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r3", "h3") {
		t.Fatalf("path = %v, want direct", p.Hops)
	}
}

func TestBGPNeighborFilterRestoresPath(t *testing.T) {
	cfg := bgpChain(t)
	pool := netbuild.PoolFor(cfg)
	if _, err := netbuild.AddP2PLink(cfg, pool, "r1", "r3", netbuild.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h3pfx := n.HostPrefix["h3"]
	h1pfx := n.HostPrefix["h1"]
	// Deny h3's prefix on r1's session toward r3 and h1's prefix on r3's
	// session toward r1: both directions fall back to the AS2 transit.
	l := n.LinkBetween("r1", "r3")
	r1 := cfg.Device("r1")
	r3 := cfg.Device("r3")
	r1.EnsurePrefixList("F1").Deny(h3pfx)
	r3.EnsurePrefixList("F3").Deny(h1pfx)
	for _, nb := range r1.BGP.Neighbors {
		if nb.Addr == l.B.Addr || nb.Addr == l.A.Addr {
			nb.DistributeListIn = "F1"
		}
	}
	for _, nb := range r3.BGP.Neighbors {
		if nb.Addr == l.A.Addr || nb.Addr == l.B.Addr {
			nb.DistributeListIn = "F3"
		}
	}
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "h1", "h3")
	if !pathEquals(p, "h1", "r1", "r2a", "r2b", "r3", "h3") {
		t.Fatalf("filtered path = %v, want transit via AS2", p.Hops)
	}
	back := singleDelivered(t, s, "h3", "h1")
	if !pathEquals(back, "h3", "r3", "r2b", "r2a", "r1", "h1") {
		t.Fatalf("filtered reverse path = %v", back.Hops)
	}
}

func TestIntraASUsesOSPF(t *testing.T) {
	b := netgen.NewBuilder(netgen.BGPOSPF)
	b.RouterAS("ra", 65001).RouterAS("rb", 65001)
	b.Link("ra", "rb")
	b.Host("ha", "ra").Host("hb", "rb")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := mustSim(t, cfg)
	p := singleDelivered(t, s, "ha", "hb")
	if !pathEquals(p, "ha", "ra", "rb", "hb") {
		t.Fatalf("intra-AS path = %v", p.Hops)
	}
	// The route installed for hb's prefix on ra must come from OSPF, not
	// iBGP (administrative distance 110 < 200).
	n, _ := Build(cfg)
	rt := s.FIB("ra")[n.HostPrefix["hb"]]
	if rt == nil || rt.Source != SrcOSPF {
		t.Fatalf("route source = %v, want ospf", rt)
	}
}

func TestStaticRouteLoopDetected(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2").Link("r2", "r3")
	b.Host("hs", "r1").Host("hd", "r3")
	cfg := b.MustBuild()
	// Poison with statics: r1 sends hd's prefix to r2, r2 back to r1.
	n, _ := Build(cfg)
	hd := n.HostPrefix["hd"]
	l12 := n.LinkBetween("r1", "r2")
	cfg.Device("r1").Statics = append(cfg.Device("r1").Statics,
		config.StaticRoute{Prefix: hd, NextHop: l12.B.Addr})
	cfg.Device("r2").Statics = append(cfg.Device("r2").Statics,
		config.StaticRoute{Prefix: hd, NextHop: l12.A.Addr})
	s := mustSim(t, cfg)
	ps := s.TraceFrom("hs", "hd")
	if len(ps) != 1 || ps[0].Status != Looped {
		t.Fatalf("expected loop, got %v", ps)
	}
}

func TestBlackHoleDetected(t *testing.T) {
	cfg := figure2Network(t)
	// Deny h4's prefix on every r1 interface: r1 loses the route entirely.
	n, _ := Build(cfg)
	h4 := n.HostPrefix["h4"]
	r1 := cfg.Device("r1")
	r1.EnsurePrefixList("ALL").Deny(h4)
	for _, l := range n.LinksOf("r1") {
		other, _ := l.Other("r1")
		if cfg.Device(other.Device).Kind != config.RouterKind {
			continue
		}
		local, _ := l.Local("r1")
		r1.OSPF.InFilters[local.Iface] = "ALL"
	}
	s := mustSim(t, cfg)
	ps := s.TraceFrom("h1", "h4")
	if len(ps) != 1 || ps[0].Status != BlackHoled {
		t.Fatalf("expected black hole, got %v", ps)
	}
}

func TestFIBLookupLongestPrefixMatch(t *testing.T) {
	f := make(FIB)
	wide := netip.MustParsePrefix("10.0.0.0/8")
	narrow := netip.MustParsePrefix("10.1.0.0/24")
	f[wide] = &Route{Prefix: wide, NextHops: []NextHop{{Dev: 0}}}
	f[narrow] = &Route{Prefix: narrow, NextHops: []NextHop{{Dev: 1}}}
	got := f.Lookup(netip.MustParseAddr("10.1.0.7"))
	if got == nil || got.Prefix != narrow {
		t.Fatalf("LPM picked %v", got)
	}
	got = f.Lookup(netip.MustParseAddr("10.2.0.7"))
	if got == nil || got.Prefix != wide {
		t.Fatalf("fallback picked %v", got)
	}
	if f.Lookup(netip.MustParseAddr("192.168.0.1")) != nil {
		t.Fatal("expected miss")
	}
}

func TestDataPlaneExtractionAndDiff(t *testing.T) {
	cfg := figure2Network(t)
	s := mustSim(t, cfg)
	hosts := cfg.Hosts()
	pairs := 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst && len(s.TraceFrom(src, dst)) > 0 {
				pairs++
			}
		}
	}
	if pairs != 6 { // 3 hosts × 2
		t.Fatalf("pairs = %d", pairs)
	}
	if !slices.ContainsFunc(s.TraceFrom("h1", "h4"), func(p Path) bool { return p.Status == Delivered }) {
		t.Fatal("h1→h4 should be reachable")
	}
	pd := s.PairDigestsFor(hosts)
	if d := pd.DiffPairs(s.PairDigestsFor(hosts)); len(d) != 0 {
		t.Fatalf("DP must equal itself: %v", d)
	}

	// Change routing: drop the cost advantage by filtering, then diff.
	cfg2 := cfg.Clone()
	n, _ := Build(cfg2)
	h4 := n.HostPrefix["h4"]
	r1 := cfg2.Device("r1")
	l13 := n.LinkBetween("r1", "r3")
	local, _ := l13.Local("r1")
	r1.EnsurePrefixList("F").Deny(h4)
	r1.OSPF.InFilters[local.Iface] = "F"
	s2 := mustSim(t, cfg2)
	diff := pd.DiffPairs(s2.PairDigestsFor(hosts))
	if len(diff) != 1 || diff[0] != (Pair{Src: "h1", Dst: "h4"}) {
		t.Fatalf("diff = %v", diff)
	}
	if traced := tracedDiff(s, s2, hosts); !slices.Equal(traced, diff) {
		t.Fatalf("traced diff = %v, digest diff = %v", traced, diff)
	}
}

func TestSnapshotNextHopRouters(t *testing.T) {
	cfg := figure2Network(t)
	s := mustSim(t, cfg)
	n := s.Net
	got := s.NextHopRouters("r1", n.HostPrefix["h4"])
	if len(got) != 1 || got[0] != "r3" {
		t.Fatalf("NextHopRouters = %v, want [r3]", got)
	}
	if s.NextHopRouters("missing", n.HostPrefix["h4"]) != nil {
		t.Fatal("unknown router should return nil")
	}
}

func TestRoundTripThroughTextPreservesDataPlane(t *testing.T) {
	cfg := bgpChain(t)
	s1 := mustSim(t, cfg)
	texts := cfg.Render()
	cfg2, err := config.ParseNetwork(texts)
	if err != nil {
		t.Fatalf("ParseNetwork: %v", err)
	}
	s2 := mustSim(t, cfg2)
	hosts := cfg.Hosts()
	if d := tracedDiff(s1, s2, hosts); len(d) != 0 {
		t.Fatalf("data plane changed across render/parse round trip: %v", d)
	}
}

func TestBuildErrors(t *testing.T) {
	// A host with no addressed interface.
	cfg := config.NewNetwork()
	cfg.Add(&config.Device{Hostname: "h", Kind: config.HostKind})
	if _, err := Build(cfg); err == nil {
		t.Fatal("expected error for unaddressed host")
	}
	// A host with no attached router.
	cfg2 := config.NewNetwork()
	cfg2.Add(&config.Device{
		Hostname: "h", Kind: config.HostKind,
		Interfaces: []*config.Interface{{Name: "eth0", Addr: netip.MustParsePrefix("10.0.0.2/24")}},
	})
	if _, err := Build(cfg2); err == nil {
		t.Fatal("expected error for orphan host")
	}
}
