package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// These tests pin the per-destination engine to the seed per-pair
// recursive walker (traceNaive in oracle_test.go): every path set must be
// byte-identical — hop for hop, status for status, in canonical order —
// on the full evaluation catalog, on randomized topologies, on FIBs
// mutated to contain forwarding loops, black holes, and over-depth
// chains, and across filter-edit deltas.

// samePaths reports whether two canonical path lists are byte-identical.
func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Status != b[i].Status || len(a[i].Hops) != len(b[i].Hops) {
			return false
		}
		for j := range a[i].Hops {
			if a[i].Hops[j] != b[i].Hops[j] {
				return false
			}
		}
	}
	return true
}

// assertDataPlaneMatchesNaive compares the Snapshot's data plane over
// hosts against the reference walker pair by pair: the TraceFrom listing
// of every ordered pair, traced destination by destination across the
// Snapshot's workers as the engines' concurrent callers would, and its
// PairDigestsFor fingerprint.
func assertDataPlaneMatchesNaive(t *testing.T, s *Snapshot, hosts []string) {
	t.Helper()
	n := len(hosts)
	got := make([][]Path, n*n) // got[j*n+i] is hosts[i] → hosts[j]
	forEachIndex(s.traceWorkers(), n, func(j int) {
		for i, src := range hosts {
			got[j*n+i] = s.TraceFrom(src, hosts[j])
		}
	})
	pd := s.PairDigestsFor(hosts)
	for j, dst := range hosts {
		for i, src := range hosts {
			if src == dst {
				continue
			}
			want := s.traceNaive(src, dst, Failure{})
			if !samePaths(got[j*n+i], want) {
				t.Fatalf("pair %s->%s: engine paths differ from naive walker\n got: %v\nwant: %v", src, dst, got[j*n+i], want)
			}
			if fp, _ := pd.Digest(src, dst); fp != digestOfBytes([]byte(pathSetKey(want))) {
				t.Fatalf("pair %s->%s: fingerprint %x != digest of pathSetKey %q", src, dst, fp, pathSetKey(want))
			}
		}
	}
}

// assertCleanPathsKept checks the FilterDiff contract a delta relies on:
// every destination the diff leaves clean keeps, from every host, the
// paths it had on prev.
func assertCleanPathsKept(t *testing.T, prev, next *Snapshot, hosts []string, diff *FilterDiff) {
	t.Helper()
	for _, dst := range hosts {
		if diff.Affects(next.Net.HostPrefix[dst]) {
			continue
		}
		for _, src := range hosts {
			if src == dst {
				continue
			}
			if got, want := next.TraceFrom(src, dst), prev.TraceFrom(src, dst); !samePaths(got, want) {
				t.Fatalf("clean pair %s->%s changed\n got: %v\nwant: %v", src, dst, got, want)
			}
		}
	}
}

// TestDataPlaneEngineMatchesNaiveCatalog is the acceptance pin: on all
// eight evaluation networks, at every parallelism setting, the engine's
// path listings and fingerprints are byte-identical to the seed recursive
// walker's.
func TestDataPlaneEngineMatchesNaiveCatalog(t *testing.T) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, 0} {
				snap, err := SimulateOpts(cfg, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				assertDataPlaneMatchesNaive(t, snap, cfg.Hosts())
			}
		})
	}
}

// randomSimNet mirrors the anonymize package's netgen fuzz harness: a
// random connected topology (spanning tree plus chords), random OSPF
// costs, hosts on random routers.
func randomSimNet(t *testing.T, proto netgen.Proto, rng *rand.Rand) *config.Network {
	t.Helper()
	n := 6 + rng.Intn(12)
	b := netgen.NewBuilder(proto)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("r%02d", i)
		b.Router(names[i])
	}
	type edge struct{ a, b int }
	used := map[edge]bool{}
	link := func(i, j int) {
		if i == j {
			return
		}
		a, c := i, j
		if a > c {
			a, c = c, a
		}
		if used[edge{a, c}] {
			return
		}
		used[edge{a, c}] = true
		cost := 0
		if proto == netgen.OSPF && rng.Intn(2) == 0 {
			cost = 1 + rng.Intn(20)
		}
		b.LinkCost(names[i], names[j], cost, cost)
	}
	for i := 1; i < n; i++ {
		link(i, rng.Intn(i))
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		link(rng.Intn(n), rng.Intn(n))
	}
	hosts := 2 + rng.Intn(3)
	for h := 0; h < hosts; h++ {
		b.Host(fmt.Sprintf("h%02d", h), names[rng.Intn(n)])
	}
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestDataPlaneEngineMatchesNaiveRandom fuzzes converged topologies:
// every host pair at random parallelism plus TraceFrom from every device
// (router-sourced traces) must match the walker.
func TestDataPlaneEngineMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4021))
	protos := []netgen.Proto{netgen.OSPF, netgen.RIP, netgen.EIGRP}
	for trial := 0; trial < 12; trial++ {
		proto := protos[trial%len(protos)]
		cfg := randomSimNet(t, proto, rng)
		snap, err := SimulateOpts(cfg, Options{Parallelism: rng.Intn(5)})
		if err != nil {
			t.Fatal(err)
		}
		hosts := cfg.Hosts()
		assertDataPlaneMatchesNaive(t, snap, hosts)
		for _, dev := range cfg.Names() {
			for _, dst := range hosts {
				got := snap.TraceFrom(dev, dst)
				want := snap.traceNaive(dev, dst, Failure{})
				if !samePaths(got, want) {
					t.Fatalf("trial %d: TraceFrom(%s, %s)\n got: %v\nwant: %v", trial, dev, dst, got, want)
				}
			}
		}
	}
}

// TestDataPlaneEngineLoopsAndBlackHoles mutates converged FIBs into
// pathological ones — rewired next hops forming forwarding loops
// (including self-loops), deleted routes, discard next hops — and checks
// the engine still matches the walker's Looped/BlackHoled classification
// and truncation exactly.
func TestDataPlaneEngineLoopsAndBlackHoles(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 20; trial++ {
		cfg := randomSimNet(t, netgen.OSPF, rng)
		snap, err := SimulateOpts(cfg, Options{Parallelism: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		hosts := cfg.Hosts()
		routers := cfg.Routers()
		// Corrupt a handful of (router, host-prefix) FIB entries before
		// the first trace builds any engine.
		for m := 0; m < 2+rng.Intn(6); m++ {
			r := routers[rng.Intn(len(routers))]
			h := hosts[rng.Intn(len(hosts))]
			pfx := snap.Net.HostPrefix[h]
			switch rng.Intn(4) {
			case 0: // forwarding loop (possibly self-loop)
				tgt := routers[rng.Intn(len(routers))]
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcOSPF, NextHops: []NextHop{{Device: tgt}}})
			case 1: // ECMP loop: two rewired branches
				t1 := routers[rng.Intn(len(routers))]
				t2 := routers[rng.Intn(len(routers))]
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcOSPF, NextHops: sortNextHops([]NextHop{{Device: t1}, {Device: t2, Iface: "x"}})})
			case 2: // black hole: no route at all
				setRoute(snap, r, pfx, nil)
			case 3: // discard next hop
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcStatic, NextHops: []NextHop{{Device: DiscardDevice, Iface: "Null0"}}})
			}
		}
		assertDataPlaneMatchesNaive(t, snap, hosts)
		for _, dev := range cfg.Names() {
			for _, dst := range hosts {
				got := snap.TraceFrom(dev, dst)
				want := snap.traceNaive(dev, dst, Failure{})
				if !samePaths(got, want) {
					t.Fatalf("trial %d: TraceFrom(%s, %s) after FIB corruption\n got: %v\nwant: %v", trial, dev, dst, got, want)
				}
			}
		}
	}
}

// TestDataPlaneEngineDeepPaths drives paths past maxTraceDepth (a chain
// longer than the depth budget) so the walker's Looped truncation at the
// depth bound is checked against the naive walker, from every start depth.
func TestDataPlaneEngineDeepPaths(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	n := maxTraceDepth + 8
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("c%03d", i)
		b.Router(names[i])
	}
	for i := 1; i < n; i++ {
		b.Link(names[i-1], names[i])
	}
	b.Host("ha", names[0])
	b.Host("hz", names[n-1])
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	hosts := cfg.Hosts()
	assertDataPlaneMatchesNaive(t, snap, hosts)
	// Also from mid-chain routers: prefixes of every length around the
	// depth boundary.
	for _, dev := range names {
		for _, dst := range hosts {
			got := snap.TraceFrom(dev, dst)
			want := snap.traceNaive(dev, dst, Failure{})
			if !samePaths(got, want) {
				t.Fatalf("TraceFrom(%s, %s)\n got: %v\nwant: %v", dev, dst, got, want)
			}
		}
	}
}

// attachIGPDeny adds (or extends) an inbound distribute-list denying pfx
// on one interface of the device, whichever IGP the device runs.
func attachIGPDeny(d *config.Device, iface string, pfx netip.Prefix) bool {
	var filters map[string]string
	switch {
	case d.OSPF != nil:
		if d.OSPF.InFilters == nil {
			d.OSPF.InFilters = make(map[string]string)
		}
		filters = d.OSPF.InFilters
	case d.RIP != nil:
		if d.RIP.InFilters == nil {
			d.RIP.InFilters = make(map[string]string)
		}
		filters = d.RIP.InFilters
	case d.EIGRP != nil:
		if d.EIGRP.InFilters == nil {
			d.EIGRP.InFilters = make(map[string]string)
		}
		filters = d.EIGRP.InFilters
	default:
		return false
	}
	name, ok := filters[iface]
	if !ok {
		name = "TST-" + iface
		filters[iface] = name
	}
	d.EnsurePrefixList(name).Deny(pfx)
	return true
}

// TestDataPlaneForDirtyRandom is the dirty-destination property test:
// after each random filter mutation, the delta re-simulation's paths and
// fingerprints must equal the naive walker's, and every destination the
// InvalidateFilters diff leaves clean must keep its previous paths.
func TestDataPlaneForDirtyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	protos := []netgen.Proto{netgen.OSPF, netgen.RIP, netgen.EIGRP}
	for trial := 0; trial < 9; trial++ {
		proto := protos[trial%len(protos)]
		cfg := randomSimNet(t, proto, rng)
		view, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(4)})
		hosts := cfg.Hosts()
		assertDataPlaneMatchesNaive(t, snap, hosts)

		routers := cfg.Routers()
		var denied []struct {
			dev  string
			list string
			pfx  netip.Prefix
		}
		for round := 0; round < 6; round++ {
			// Mutate: mostly add a deny, sometimes remove one again.
			if len(denied) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(denied))
				d := cfg.Device(denied[i].dev)
				if pl := d.PrefixList(denied[i].list); pl != nil {
					pl.RemoveDeny(denied[i].pfx)
				}
				denied = append(denied[:i], denied[i+1:]...)
			} else {
				r := routers[rng.Intn(len(routers))]
				h := hosts[rng.Intn(len(hosts))]
				d := cfg.Device(r)
				if len(d.Interfaces) == 0 {
					continue
				}
				iface := d.Interfaces[rng.Intn(len(d.Interfaces))].Name
				pfx := snap.Net.HostPrefix[h]
				if !attachIGPDeny(d, iface, pfx) {
					continue
				}
				denied = append(denied, struct {
					dev  string
					list string
					pfx  netip.Prefix
				}{r, "TST-" + iface, pfx})
			}

			diff := view.InvalidateFilters()
			prev := snap
			snap = SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(4)})
			assertDataPlaneMatchesNaive(t, snap, hosts)
			assertCleanPathsKept(t, prev, snap, hosts, diff)
		}
	}
}

// TestFilterDiffReporting pins the diff semantics: no mutation → Empty;
// adding a deny dirties exactly that prefix; detaching the list dirties
// it again; unrelated destinations are unaffected.
func TestFilterDiffReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := randomSimNet(t, netgen.OSPF, rng)
	view, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := view.InvalidateFilters(); !d.Empty() {
		t.Fatalf("no-op InvalidateFilters: diff not empty (all=%v prefixes=%v)", d.All(), d.Prefixes())
	}

	hosts := cfg.Hosts()
	h0, h1 := hosts[0], hosts[1]
	pfx := view.HostPrefix[h0]
	r := view.GatewayOf[h1]
	d := cfg.Device(r)
	iface := d.Interfaces[0].Name
	if !attachIGPDeny(d, iface, pfx) {
		t.Fatalf("could not attach filter on %s", r)
	}
	diff := view.InvalidateFilters()
	if diff.All() || diff.Empty() {
		t.Fatalf("add-deny diff: all=%v empty=%v", diff.All(), diff.Empty())
	}
	if !diff.Affects(pfx) {
		t.Fatalf("diff does not affect denied prefix %v", pfx)
	}
	if other := view.HostPrefix[h1]; diff.Affects(other) {
		t.Fatalf("diff affects unrelated prefix %v", other)
	}

	// Detach the list without touching its rules: attachment diff.
	delete(d.OSPF.InFilters, iface)
	diff = view.InvalidateFilters()
	if !diff.Affects(pfx) {
		t.Fatalf("detach diff does not affect %v", pfx)
	}
	if d2 := view.InvalidateFilters(); !d2.Empty() {
		t.Fatalf("idle diff after detach not empty")
	}
}

// TestDataPlaneForDirtyBGP covers the eBGP attachment path on the
// Backbone network: a distribute-list denial on a BGP session must be
// reported dirty, the delta re-simulation's paths must match the walker,
// and the destinations left clean must keep their paths.
func TestDataPlaneForDirtyBGP(t *testing.T) {
	cfg, err := netgen.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	view, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := SimulateNet(view)
	hosts := cfg.Hosts()
	assertDataPlaneMatchesNaive(t, prev, hosts)

	// Find a router with a BGP neighbor and deny some host's prefix
	// inbound on that session.
	var dev *config.Device
	for _, r := range cfg.Routers() {
		d := cfg.Device(r)
		if d.BGP != nil && len(d.BGP.Neighbors) > 0 {
			dev = d
			break
		}
	}
	if dev == nil {
		t.Skip("Backbone has no BGP neighbors")
	}
	nb := dev.BGP.Neighbors[0]
	pfx := view.HostPrefix[hosts[0]]
	if nb.DistributeListIn == "" {
		nb.DistributeListIn = "TST-BGP"
	}
	dev.EnsurePrefixList(nb.DistributeListIn).Deny(pfx)

	diff := view.InvalidateFilters()
	if !diff.Affects(pfx) {
		t.Fatalf("BGP deny not reported dirty for %v", pfx)
	}
	snap := SimulateNet(view)
	assertDataPlaneMatchesNaive(t, snap, hosts)
	assertCleanPathsKept(t, prev, snap, hosts, diff)
}
