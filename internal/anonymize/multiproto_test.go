package anonymize

import (
	"context"
	"net/netip"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/netbuild"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// TestAddInterfaceFilterSourceKeyed pins the attachment rule: the deny
// must land on the inbound distribute-list of the protocol that learned
// the route. The pre-fix code attached to the first configured protocol
// (OSPF won), where a RIP/EIGRP deny filters nothing.
func TestAddInterfaceFilterSourceKeyed(t *testing.T) {
	p := netip.MustParsePrefix("10.9.0.0/24")
	d := &config.Device{
		Hostname: "r",
		Kind:     config.RouterKind,
		OSPF:     &config.OSPF{ProcessID: 1},
		RIP:      &config.RIP{},
		EIGRP:    &config.EIGRP{ASN: 100},
	}
	if !addInterfaceFilter(d, "Ethernet0", p, sim.SrcRIP) {
		t.Fatal("RIP deny not added")
	}
	if len(d.RIP.InFilters) != 1 || len(d.OSPF.InFilters) != 0 || len(d.EIGRP.InFilters) != 0 {
		t.Fatalf("RIP deny attached to wrong protocol: ospf=%v eigrp=%v rip=%v",
			d.OSPF.InFilters, d.EIGRP.InFilters, d.RIP.InFilters)
	}
	if !addInterfaceFilter(d, "Ethernet0", p, sim.SrcEIGRP) {
		t.Fatal("EIGRP deny not added")
	}
	if len(d.EIGRP.InFilters) != 1 {
		t.Fatalf("EIGRP deny missing: %v", d.EIGRP.InFilters)
	}
	// The two protocols filtering the same interface must use distinct
	// lists, or one protocol's denies would leak into the other's view.
	if d.RIP.InFilters["Ethernet0"] == d.EIGRP.InFilters["Ethernet0"] {
		t.Fatalf("protocols share list %q", d.RIP.InFilters["Ethernet0"])
	}
	// iBGP routes resolve through OSPF and filter at the OSPF attachment.
	if !addInterfaceFilter(d, "Ethernet1", p, sim.SrcIBGP) {
		t.Fatal("iBGP deny not added")
	}
	if _, ok := d.OSPF.InFilters["Ethernet1"]; !ok {
		t.Fatalf("iBGP deny not on OSPF: %v", d.OSPF.InFilters)
	}
	// Re-adding is idempotent; removal is source-keyed the same way.
	if addInterfaceFilter(d, "Ethernet0", p, sim.SrcRIP) {
		t.Fatal("duplicate deny reported as added")
	}
	cfg := config.NewNetwork()
	cfg.Add(d)
	if !removeFilterDeny(cfg, nil, "r", sim.NextHop{Iface: "Ethernet0"}, p, sim.SrcRIP) {
		t.Fatal("RIP deny not removed")
	}
	// The EIGRP deny on the same interface must survive a RIP removal.
	if removeFilterDeny(cfg, nil, "r", sim.NextHop{Iface: "Ethernet0"}, p, sim.SrcRIP) {
		t.Fatal("second removal reported success")
	}
	if pl := d.PrefixList(d.EIGRP.InFilters["Ethernet0"]); pl == nil || !pl.Denies(p) {
		t.Fatal("EIGRP deny lost on RIP removal")
	}
}

// multiProtoNet is a 5-ring RIP network whose r1 additionally carries an
// OSPF process — the configuration mix that exposed the first-configured
// protocol bug in addInterfaceFilter.
func multiProtoNet(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.RIP)
	for _, r := range []string{"r1", "r2", "r3", "r4", "r5"} {
		b.Router(r)
	}
	b.Link("r1", "r2").Link("r2", "r3").Link("r3", "r4").Link("r4", "r5").Link("r5", "r1")
	b.Host("h1", "r1").Host("h3", "r3")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device("r1").OSPF = &config.OSPF{ProcessID: 1, InFilters: map[string]string{}}
	return cfg
}

// TestRouteEquivalenceMultiProtocol reproduces the Algorithm 1 stall: a
// fake link carrying RIP advertisements into a router that also runs
// OSPF. The pre-fix attachment put the deny on the OSPF process, so the
// wrong RIP route survived, the second iteration saw the deny as already
// present (changed == 0), and convergence failed with differing data
// planes. With source-keyed attachment the loop converges and restores
// the original forwarding exactly.
func TestRouteEquivalenceMultiProtocol(t *testing.T) {
	cfg := multiProtoNet(t)
	base, err := newBaseline(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A fake chord r1—r3, RIP-enabled on both ends: r1 learns h3's prefix
	// at metric 2 over it, beating the real metric-3 path via r2.
	out := cfg.Clone()
	pool := netaddr.NewPool(out.UsedPrefixes(), nil)
	pfx, err := netbuild.AddP2PLink(out, pool, "r1", "r3", netbuild.LinkOpts{Injected: true, NoProtocol: true})
	if err != nil {
		t.Fatal(err)
	}
	out.Device("r1").RIP.Networks = append(out.Device("r1").RIP.Networks, pfx)
	out.Device("r3").RIP.Networks = append(out.Device("r3").RIP.Networks, pfx)

	opts := DefaultOptions()
	_, iters, filters, err := routeEquivalence(context.Background(), out, base, opts)
	if err != nil {
		t.Fatalf("routeEquivalence: %v", err)
	}
	if filters == 0 {
		t.Fatal("fake chord produced no filters; scenario broken")
	}
	r1 := out.Device("r1")
	if len(r1.OSPF.InFilters) != 0 {
		t.Fatalf("deny attached to r1's OSPF process: %v", r1.OSPF.InFilters)
	}
	if len(r1.RIP.InFilters) == 0 {
		t.Fatal("no deny on r1's RIP process")
	}
	t.Logf("converged in %d iterations, %d filters", iters, filters)

	snap, err := sim.Simulate(out)
	if err != nil {
		t.Fatal(err)
	}
	if d := base.snap.PairDigestsFor(base.hosts).DiffPairs(snap.PairDigestsFor(base.hosts)); len(d) != 0 {
		t.Fatalf("data planes differ after convergence: %v", d)
	}
}
