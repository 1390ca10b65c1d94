package attack

import (
	"net/netip"
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/netbuild"
	"confmask/internal/netgen"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

func square(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.OSPF)
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		b.Router(r)
	}
	b.LinkCost("r1", "r3", 1, 1).LinkCost("r3", "r2", 1, 1).Link("r1", "r2").Link("r2", "r4")
	b.Host("h1", "r1").Host("h4", "r4")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestUnconfiguredInterfacesDetectsBareFakeLink(t *testing.T) {
	cfg := square(t)
	pool := netbuild.PoolFor(cfg)
	// Strawman step 1: fake link without protocol registration.
	if _, err := netbuild.AddP2PLink(cfg, pool, "r1", "r4", netbuild.LinkOpts{NoProtocol: true, Injected: true}); err != nil {
		t.Fatal(err)
	}
	flagged, err := UnconfiguredInterfaces(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 1 || flagged[0].Link != topology.CanonEdge("r1", "r4") {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestUnconfiguredInterfacesCleanOnConfMaskOutput(t *testing.T) {
	cfg := square(t)
	opts := anonymize.DefaultOptions()
	opts.KR = 2
	opts.Seed = 3
	anon, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := UnconfiguredInterfaces(anon)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 0 {
		t.Fatalf("ConfMask output leaked unconfigured interfaces: %v", flagged)
	}
}

func TestLargeCostLinksDetectsDeadLink(t *testing.T) {
	// A ring has no naturally dead links: every link is the shortest
	// path between its endpoints.
	b := netgen.NewBuilder(netgen.OSPF)
	for _, r := range []string{"r1", "r2", "r3", "r4"} {
		b.Router(r)
	}
	b.Link("r1", "r2").Link("r2", "r3").Link("r3", "r4").Link("r4", "r1")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pool := netbuild.PoolFor(cfg)
	// Strawman step 2(ii): fake link with a prohibitively large cost.
	if _, err := netbuild.AddP2PLink(cfg, pool, "r1", "r3", netbuild.LinkOpts{CostA: 10000, CostB: 10000, Injected: true}); err != nil {
		t.Fatal(err)
	}
	flagged, err := LargeCostLinks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flagged) != 1 || flagged[0].Link != topology.CanonEdge("r1", "r3") {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestLargeCostLinksCleanOnConfMaskOutput(t *testing.T) {
	cfg := square(t)
	opts := anonymize.DefaultOptions()
	opts.KR = 2
	opts.Seed = 3
	anon, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := LargeCostLinks(anon)
	if err != nil {
		t.Fatal(err)
	}
	// ConfMask's matched-cost fake links are never dead by cost alone.
	score := ScoreLinks(flagged, rep.FakeEdges)
	if score.TruePositives > 0 {
		t.Fatalf("SPT attack identified ConfMask fake links: %v", flagged)
	}
}

func TestSharedDenyPatternDetectsStrawman1(t *testing.T) {
	cfg, err := netgen.Enterprise()
	if err != nil {
		t.Fatal(err)
	}
	opts := anonymize.DefaultOptions()
	opts.Seed = 3
	opts.Strategy = anonymize.Strawman1
	anonS1, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1Flags := SharedDenyPattern(anonS1, 2)
	if len(s1Flags) == 0 {
		t.Fatal("strawman 1's unified deny pattern went undetected")
	}

	opts.Strategy = anonymize.ConfMask
	anonCM, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmFlags := SharedDenyPattern(anonCM, 2)
	if len(cmFlags) >= len(s1Flags) {
		t.Fatalf("ConfMask (%d flags) should expose far less pattern than strawman 1 (%d flags)",
			len(cmFlags), len(s1Flags))
	}
}

func TestDegreeReidentificationBoundedByK(t *testing.T) {
	cfg, err := netgen.Enterprise()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origTopo := snap.Net.Topology()

	opts := anonymize.DefaultOptions()
	opts.Seed = 9
	anon, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	anonSnap, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	sharedTopo := anonSnap.Net.Topology()

	// Attack every router using its true degree as auxiliary knowledge.
	// Note the adversary's best auxiliary degree may not even occur in
	// the shared graph (degrees changed); when it does, k-anonymity caps
	// the confidence.
	for _, r := range origTopo.NodesOf(topology.Router) {
		trueDeg := sharedTopo.RouterDegree(r) // strongest aux knowledge: the shared degree
		cands, conf := DegreeReidentification(sharedTopo, trueDeg)
		if len(cands) == 0 {
			t.Fatalf("router %s vanished from shared graph", r)
		}
		if conf > 1.0/float64(opts.KR)+1e-9 {
			t.Fatalf("re-identification confidence %v exceeds 1/k_R for %s", conf, r)
		}
	}
}

func TestReidentifyAll(t *testing.T) {
	cfg, err := netgen.Enterprise()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origTopo := snap.Net.Topology()

	// Against itself: every router matches its own degree class, so
	// nothing is unmatched and confidences are sane.
	self := ReidentifyAll(origTopo, origTopo)
	if self.Routers != len(origTopo.NodesOf(topology.Router)) {
		t.Fatalf("attacked %d routers, topology has %d", self.Routers, len(origTopo.NodesOf(topology.Router)))
	}
	if self.Unmatched != 0 {
		t.Fatalf("unmatched against self: %d", self.Unmatched)
	}
	if self.MaxConfidence <= 0 || self.MaxConfidence > 1 || self.MeanConfidence > self.MaxConfidence {
		t.Fatalf("degenerate self summary: %+v", self)
	}

	// Against the anonymized network: any router the adversary still
	// locates is hidden among at least k_R candidates.
	opts := anonymize.DefaultOptions()
	opts.Seed = 9
	anon, _, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	anonSnap, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	sum := ReidentifyAll(origTopo, anonSnap.Net.Topology())
	if sum.Routers != self.Routers {
		t.Fatalf("router count changed: %+v", sum)
	}
	cap := 1.0/float64(opts.KR) + 1e-9
	if sum.MaxConfidence > cap {
		t.Fatalf("max confidence %v exceeds 1/k_R=%v", sum.MaxConfidence, 1.0/float64(opts.KR))
	}
	// Even the strongest degree knowledge is capped by k-anonymity, and
	// every original router still exists in the shared graph, so the
	// strongest attack always matches something.
	if sum.SharedMax > cap {
		t.Fatalf("shared-degree max confidence %v exceeds 1/k_R", sum.SharedMax)
	}
	if sum.SharedMax <= 0 || sum.SharedMean <= 0 {
		t.Fatalf("strongest-knowledge attack found nothing: %+v", sum)
	}
}

func TestScoreLinks(t *testing.T) {
	fake := []topology.Edge{topology.CanonEdge("a", "b"), topology.CanonEdge("c", "d")}
	flagged := []LinkSuspicion{
		{Link: topology.CanonEdge("b", "a")}, // TP (canonicalized)
		{Link: topology.CanonEdge("x", "y")}, // FP
		{Link: topology.CanonEdge("x", "y")}, // duplicate, ignored
	}
	s := ScoreLinks(flagged, fake)
	if s.TruePositives != 1 || s.FalsePositives != 1 || s.FalseNegatives != 1 {
		t.Fatalf("score = %+v", s)
	}
	if s.Precision() != 0.5 || s.Recall() != 0.5 {
		t.Fatalf("precision/recall = %v/%v", s.Precision(), s.Recall())
	}
	empty := ScoreLinks(nil, nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Fatalf("degenerate score = %+v", empty)
	}
}

// TestSharedDenyPatternEveryIGP repeats one two-prefix deny list on an
// interface of two routers, attached to the inbound distribute-lists of
// an OSPF, a RIP and an EIGRP process in turn: each time both sites are
// flagged.
func TestSharedDenyPatternEveryIGP(t *testing.T) {
	for _, tc := range []struct {
		name    string
		proto   netgen.Proto
		filters func(*config.Device) map[string]string
	}{
		{"ospf", netgen.OSPF, func(d *config.Device) map[string]string { return d.OSPF.InFilters }},
		{"rip", netgen.RIP, func(d *config.Device) map[string]string { return d.RIP.InFilters }},
		{"eigrp", netgen.EIGRP, func(d *config.Device) map[string]string { return d.EIGRP.InFilters }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := netgen.NewBuilder(tc.proto)
			for _, r := range []string{"r1", "r2", "r3"} {
				b.Router(r)
			}
			b.Link("r1", "r2").Link("r2", "r3")
			b.Host("h1", "r1").Host("h3", "r3")
			cfg, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []string{"r1", "r3"} {
				d := cfg.Device(r)
				pl := d.EnsurePrefixList("SHARED")
				pl.Deny(netip.MustParsePrefix("10.9.0.0/24"))
				pl.Deny(netip.MustParsePrefix("10.9.1.0/24"))
				tc.filters(d)[d.Interfaces[0].Name] = "SHARED"
			}
			if got := SharedDenyPattern(cfg, 2); len(got) != 2 {
				t.Fatalf("flagged %v, want the two sites of SHARED", got)
			}
		})
	}
}
