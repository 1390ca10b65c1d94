package anonymize

import (
	"net/netip"
	"testing"

	"confmask/internal/sim"
)

func TestAddFilterOSPFInterface(t *testing.T) {
	cfg := ospfNet(t)
	view, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.99.0.0/24")
	l := view.LinkBetween("r1", "r2")
	local, _ := l.Local("r1")

	if !addFilter(cfg, view, "r1", "r2", local.Iface, p, sim.SrcOSPF) {
		t.Fatal("first addFilter returned false")
	}
	if addFilter(cfg, view, "r1", "r2", local.Iface, p, sim.SrcOSPF) {
		t.Fatal("duplicate addFilter returned true")
	}
	d := cfg.Device("r1")
	name := d.OSPF.InFilters[local.Iface]
	if name == "" || !d.PrefixList(name).Denies(p) {
		t.Fatalf("filter not installed: %v", d.OSPF.InFilters)
	}
	// iBGP-resolved routes use the same interface attachment.
	if addFilter(cfg, view, "r1", "r2", local.Iface, p, sim.SrcIBGP) {
		t.Fatal("iBGP path should hit the same existing deny")
	}

	if !removeFilterDeny(cfg, view, "r1", "r2", local.Iface, p, sim.SrcOSPF) {
		t.Fatal("removeFilterDeny failed")
	}
	if d.PrefixList(name).Denies(p) {
		t.Fatal("deny survived removal")
	}
	if removeFilterDeny(cfg, view, "r1", "r2", local.Iface, p, sim.SrcOSPF) {
		t.Fatal("double removal returned true")
	}
}

func TestAddFilterBGPNeighbor(t *testing.T) {
	cfg := bgpNet(t)
	view, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.99.0.0/24")
	l := view.LinkBetween("a2", "b1") // eBGP link
	local, _ := l.Local("a2")
	if !addFilter(cfg, view, "a2", "b1", local.Iface, p, sim.SrcEBGP) {
		t.Fatal("eBGP addFilter failed")
	}
	found := false
	for _, nb := range cfg.Device("a2").BGP.Neighbors {
		if nb.DistributeListIn != "" && cfg.Device("a2").PrefixList(nb.DistributeListIn) != nil {
			if cfg.Device("a2").PrefixList(nb.DistributeListIn).Denies(p) {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("neighbor distribute-list not installed")
	}
	if !removeFilterDeny(cfg, view, "a2", "b1", local.Iface, p, sim.SrcEBGP) {
		t.Fatal("eBGP removeFilterDeny failed")
	}
}

func TestAddFilterUnknownTargets(t *testing.T) {
	cfg := ospfNet(t)
	view, err := sim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("10.99.0.0/24")
	if addFilter(cfg, view, "missing", "", "", p, sim.SrcOSPF) {
		t.Fatal("filter on unknown router accepted")
	}
	// eBGP filter when the device has no BGP process.
	if addFilter(cfg, view, "r1", "r2", "x", p, sim.SrcEBGP) {
		t.Fatal("eBGP filter on non-BGP device accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("GigabitEthernet1/0/3"); got != "GigabitEthernet1-0-3" {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitize("10.0.0.1"); got != "10-0-0-1" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestFakeLinkCostsDefaults(t *testing.T) {
	cfg := ripNet(t)
	base, err := newBaseline(cfg, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// RIP network: no OSPF distances → protocol-default costs.
	a, b := fakeLinkCosts(base, "r1", "r3")
	if a != 0 || b != 0 {
		t.Fatalf("RIP fake link costs = %d,%d, want defaults", a, b)
	}
	cfg2 := ospfNet(t)
	base2, err := newBaseline(cfg2, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// OSPF: min_cost both directions; r1–r3 shortest path is 1+1 = 2.
	a2, b2 := fakeLinkCosts(base2, "r1", "r3")
	if a2 != 2 || b2 != 2 {
		t.Fatalf("OSPF fake link costs = %d,%d, want 2,2", a2, b2)
	}
}
