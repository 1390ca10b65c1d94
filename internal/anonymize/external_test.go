package anonymize

import (
	"net/netip"
	"slices"
	"strings"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netbuild"
	"confmask/internal/sim"
)

// externalNet is the 3-AS chain plus two external equivalence-class
// prefixes: one announced from the AS100 edge, one from the AS300 edge —
// the §9 "Internet hosts" extension.
func externalNet(t *testing.T) (*config.Network, []netip.Prefix) {
	t.Helper()
	cfg := bgpNet(t)
	pool := netbuild.PoolFor(cfg)
	var ecs []netip.Prefix
	for _, r := range []string{"a1", "c2"} {
		p, err := netbuild.AddExternalDestination(cfg, pool, r)
		if err != nil {
			t.Fatal(err)
		}
		ecs = append(ecs, p)
	}
	return cfg, ecs
}

func TestExternalDestinationsSimulate(t *testing.T) {
	cfg, ecs := externalNet(t)
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Net.ExternalDestinations()
	if len(got) != 2 {
		t.Fatalf("external destinations = %v", got)
	}
	// Every router must hold a route for each EC: discard at the origin,
	// BGP elsewhere.
	for _, r := range cfg.Routers() {
		for _, p := range ecs {
			nhs := snap.NextHopRouters(r, p)
			if len(nhs) == 0 {
				t.Fatalf("router %s has no route to EC %v", r, p)
			}
		}
	}
	// The origin's entry is the discard anchor.
	a1 := snap.FIB("a1")[ecs[0]]
	if a1 == nil || a1.Source != sim.SrcStatic || a1.NextHops[0].Dev != sim.DiscardDev {
		t.Fatalf("origin anchor wrong: %+v", a1)
	}
}

// TestPipelinePreservesExternalDestinations is the §9 extension's
// equivalence guarantee: after anonymization every router forwards
// traffic for external equivalence classes exactly as before.
func TestPipelinePreservesExternalDestinations(t *testing.T) {
	cfg, ecs := externalNet(t)
	opts := DefaultOptions()
	opts.KR = 2
	opts.Seed = 13
	anon, _ := checkPipeline(t, cfg, opts) // host-level guarantees

	so, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cfg.Routers() {
		for _, p := range ecs {
			want := strings.Join(so.NextHopRouters(r, p), ",")
			got := strings.Join(sa.NextHopRouters(r, p), ",")
			if want != got {
				t.Fatalf("EC %v next hops changed on %s: %q → %q", p, r, want, got)
			}
		}
	}
}

func TestExternalDestinationRoundTrip(t *testing.T) {
	cfg, ecs := externalNet(t)
	parsed, err := config.ParseNetwork(cfg.Render())
	if err != nil {
		t.Fatal(err)
	}
	d := parsed.Device("a1")
	found := false
	for _, s := range d.Statics {
		if s.Discard && s.Prefix == ecs[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("Null0 static lost in round trip")
	}
}

func TestAddExternalDestinationErrors(t *testing.T) {
	cfg := ospfNet(t) // no BGP
	pool := netbuild.PoolFor(cfg)
	if _, err := netbuild.AddExternalDestination(cfg, pool, "r1"); err == nil {
		t.Fatal("external destination on non-BGP router accepted")
	}
	if _, err := netbuild.AddExternalDestination(cfg, pool, "missing"); err == nil {
		t.Fatal("unknown router accepted")
	}
}

// parallelExternalNet is externalNet with a second b1–b2 link, so that a
// router's route toward an external destination can ride two parallel
// links to one neighbour.
func parallelExternalNet(t *testing.T) (*config.Network, []netip.Prefix) {
	t.Helper()
	cfg := bgpNet(t)
	pool := netbuild.PoolFor(cfg)
	if _, err := netbuild.AddP2PLink(cfg, pool, "b1", "b2", netbuild.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	var ecs []netip.Prefix
	for _, r := range []string{"a1", "c2"} {
		p, err := netbuild.AddExternalDestination(cfg, pool, r)
		if err != nil {
			t.Fatal(err)
		}
		ecs = append(ecs, p)
	}
	return cfg, ecs
}

// TestExternalDestinationParallelLinks anonymizes a network in which
// routers reach external destinations over two parallel links to one
// neighbour. SFE keeps both links in use, so Algorithm 1's external check
// must compare the next-hop lists uncompacted on both sides: every
// router's list, parallel entries included, must survive.
func TestExternalDestinationParallelLinks(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg, ecs := parallelExternalNet(t)
		so, err := sim.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parallel := false
		for _, r := range cfg.Routers() {
			for _, p := range ecs {
				nhs := so.NextHopRouters(r, p)
				parallel = parallel || len(slices.Compact(slices.Clone(nhs))) < len(nhs)
			}
		}
		if !parallel {
			t.Fatal("no route toward an external destination rides parallel links")
		}
		opts := DefaultOptions()
		opts.KR = 2
		opts.Seed = seed
		anon, _ := checkPipeline(t, cfg, opts)
		sa, err := sim.Simulate(anon)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cfg.Routers() {
			for _, p := range ecs {
				if want, got := so.NextHopRouters(r, p), sa.NextHopRouters(r, p); !slices.Equal(want, got) {
					t.Fatalf("seed %d: EC %v next hops changed on %s: %q → %q", seed, p, r, want, got)
				}
			}
		}
	}
}
