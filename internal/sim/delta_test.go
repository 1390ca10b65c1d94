package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netbuild"
	"confmask/internal/netgen"
)

// These tests pin delta re-simulation: a Net simulated again after filter
// edits recomputes only the prefixes its accumulated FilterDiff marks,
// and must still produce exactly the FIBs of a fresh Build + Simulate.

// attachPoint is one place a prefix list can filter routes: an inbound
// interface distribute-list of an IGP process, or a BGP neighbor's
// inbound distribute-list.
type attachPoint struct {
	dev   string
	proto string // "ospf", "rip", "eigrp" or "bgp"
	iface string // the filtered interface (IGPs)
	nb    int    // the neighbor's index in BGP.Neighbors (BGP)
}

// filterEditor applies random filter-only edits to a network: exact
// denies added and removed, lists detached and re-attached, and at most
// one ranged deny toggled, at every kind of attachment point.
type filterEditor struct {
	cfg      *config.Network
	rng      *rand.Rand
	points   []attachPoint
	prefixes []netip.Prefix
	denies   []editedDeny
	detached map[attachPoint]string
	ranged   *editedDeny
	kinds    map[string]int // edits applied, by kind
}

type editedDeny struct {
	dev, list string
	rule      config.PrefixRule
}

func newFilterEditor(cfg *config.Network, rng *rand.Rand) *filterEditor {
	e := &filterEditor{cfg: cfg, rng: rng, detached: map[attachPoint]string{}, kinds: map[string]int{}}
	seen := map[netip.Prefix]bool{}
	for _, name := range cfg.Names() {
		d := cfg.Device(name)
		for _, i := range d.Interfaces {
			if !i.Addr.IsValid() {
				continue
			}
			if p := i.Addr.Masked(); !seen[p] {
				seen[p] = true
				e.prefixes = append(e.prefixes, p)
			}
			if d.Kind != config.RouterKind {
				continue
			}
			for _, proto := range []string{"ospf", "rip", "eigrp"} {
				if e.filters(d, proto) != nil {
					e.points = append(e.points, attachPoint{dev: name, proto: proto, iface: i.Name})
				}
			}
		}
		if d.BGP != nil {
			for _, p := range d.BGP.Networks {
				if !seen[p] {
					seen[p] = true
					e.prefixes = append(e.prefixes, p)
				}
			}
			for k := range d.BGP.Neighbors {
				e.points = append(e.points, attachPoint{dev: name, proto: "bgp", nb: k})
			}
		}
	}
	return e
}

// filters returns the device's interface filter map for an IGP,
// creating it; nil when the device does not run the protocol.
func (e *filterEditor) filters(d *config.Device, proto string) map[string]string {
	var m *map[string]string
	switch {
	case proto == "ospf" && d.OSPF != nil:
		m = &d.OSPF.InFilters
	case proto == "rip" && d.RIP != nil:
		m = &d.RIP.InFilters
	case proto == "eigrp" && d.EIGRP != nil:
		m = &d.EIGRP.InFilters
	default:
		return nil
	}
	if *m == nil {
		*m = map[string]string{}
	}
	return *m
}

// listAt returns the list attached at pt ("" when none).
func (e *filterEditor) listAt(pt attachPoint) string {
	d := e.cfg.Device(pt.dev)
	if pt.proto == "bgp" {
		return d.BGP.Neighbors[pt.nb].DistributeListIn
	}
	return e.filters(d, pt.proto)[pt.iface]
}

// setList attaches list at pt; "" detaches.
func (e *filterEditor) setList(pt attachPoint, list string) {
	d := e.cfg.Device(pt.dev)
	if pt.proto == "bgp" {
		d.BGP.Neighbors[pt.nb].DistributeListIn = list
		return
	}
	if list == "" {
		delete(e.filters(d, pt.proto), pt.iface)
		return
	}
	e.filters(d, pt.proto)[pt.iface] = list
}

// ensureList returns the list attached at pt, attaching a fresh one when
// the point has none.
func (e *filterEditor) ensureList(pt attachPoint) string {
	if l := e.listAt(pt); l != "" {
		return l
	}
	l := fmt.Sprintf("DLT-%s-%s-%d", pt.proto, pt.iface, pt.nb)
	e.setList(pt, l)
	return l
}

// edit applies one random filter edit and reports its kind.
func (e *filterEditor) edit() string {
	for {
		switch k := e.rng.Intn(10); {
		case k < 5: // add an exact deny
			pt := e.points[e.rng.Intn(len(e.points))]
			list := e.ensureList(pt)
			p := e.prefixes[e.rng.Intn(len(e.prefixes))]
			pl := e.cfg.Device(pt.dev).EnsurePrefixList(list)
			if pl.Denies(p) {
				continue
			}
			pl.Deny(p)
			e.denies = append(e.denies, editedDeny{dev: pt.dev, list: list, rule: config.PrefixRule{Deny: true, Prefix: p}})
			return e.count("add-deny-" + pt.proto)
		case k < 7: // remove an exact deny
			if len(e.denies) == 0 {
				continue
			}
			i := e.rng.Intn(len(e.denies))
			ed := e.denies[i]
			e.denies = append(e.denies[:i], e.denies[i+1:]...)
			if pl := e.cfg.Device(ed.dev).PrefixList(ed.list); pl != nil {
				pl.RemoveDeny(ed.rule.Prefix)
			}
			return e.count("remove-deny")
		case k < 8: // detach a list
			pt := e.points[e.rng.Intn(len(e.points))]
			l := e.listAt(pt)
			if l == "" {
				continue
			}
			e.detached[pt] = l
			e.setList(pt, "")
			return e.count("detach")
		case k < 9: // re-attach a detached list
			for pt, l := range e.detached {
				delete(e.detached, pt)
				if e.listAt(pt) == "" {
					e.setList(pt, l)
					return e.count("attach")
				}
			}
		default: // toggle the one ranged deny
			if r := e.ranged; r != nil {
				pl := e.cfg.Device(r.dev).PrefixList(r.list)
				for i, rule := range pl.Rules {
					if rule == r.rule {
						pl.Rules = append(pl.Rules[:i], pl.Rules[i+1:]...)
						break
					}
				}
				e.ranged = nil
				return e.count("remove-ranged")
			}
			pt := e.points[e.rng.Intn(len(e.points))]
			list := e.ensureList(pt)
			p := e.prefixes[e.rng.Intn(len(e.prefixes))]
			cover, _ := p.Addr().Prefix(16)
			pl := e.cfg.Device(pt.dev).EnsurePrefixList(list)
			rule := config.PrefixRule{Seq: 1000, Deny: true, Prefix: cover, Le: 32}
			pl.Rules = append(pl.Rules, rule)
			e.ranged = &editedDeny{dev: pt.dev, list: list, rule: rule}
			return e.count("add-ranged")
		}
	}
}

func (e *filterEditor) count(kind string) string {
	e.kinds[kind]++
	return kind
}

// freshFingerprint simulates cfg from scratch at Parallelism 1 and 3 and
// returns the (required identical) FIB fingerprint.
func freshFingerprint(t *testing.T, cfg *config.Network) string {
	t.Helper()
	var fps [2]string
	for i, par := range []int{1, 3} {
		snap, err := SimulateOpts(cfg, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fibFingerprint(snap)
	}
	if fps[0] != fps[1] {
		t.Fatal("fresh simulations at Parallelism 1 and 3 differ")
	}
	return fps[0]
}

// mixedSimNet is a random OSPF network on which some routers also run
// RIP and EIGRP over every interface, so that a filter edit can hand a
// prefix from one protocol's route to another's at the same router.
func mixedSimNet(t *testing.T, rng *rand.Rand) *config.Network {
	cfg := randomSimNet(t, netgen.OSPF, rng)
	all := []netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")}
	for _, r := range cfg.Routers() {
		d := cfg.Device(r)
		if rng.Intn(2) == 0 {
			d.RIP = &config.IGP{Networks: all}
		}
		if rng.Intn(3) == 0 {
			d.EIGRP = &config.IGP{ID: 7, Networks: all}
		}
	}
	return cfg
}

// TestDeltaMatchesFreshSimulation is the differential test: random
// sequences of filter edits on OSPF, RIP, EIGRP, mixed-protocol and BGP
// networks, with zero, one or two InvalidateFilters calls between
// simulations of one Net. After every step the delta Snapshot must equal
// a fresh Build + Simulate at Parallelism 1 and 3 — or, when no
// InvalidateFilters ran, the previous result, since the Net cannot see
// an edit it was not told about.
func TestDeltaMatchesFreshSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	type network struct {
		name string
		cfg  func() *config.Network
	}
	catalog := func(id string) func() *config.Network {
		return func() *config.Network {
			s, err := netgen.ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			return cfg
		}
	}
	var nets []network
	for i := 0; i < 3; i++ {
		nets = append(nets,
			network{"ospf", func() *config.Network { return randomSimNet(t, netgen.OSPF, rng) }},
			network{"rip", func() *config.Network { return randomSimNet(t, netgen.RIP, rng) }},
			network{"eigrp", func() *config.Network { return randomSimNet(t, netgen.EIGRP, rng) }},
			network{"mixed", func() *config.Network { return mixedSimNet(t, rng) }},
		)
	}
	nets = append(nets, network{"Enterprise", catalog("A")}, network{"Backbone", catalog("C")})

	kinds := map[string]int{}
	calls := map[int]int{}
	for trial, nw := range nets {
		cfg := nw.cfg()
		ed := newFilterEditor(cfg, rng)
		view, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := freshFingerprint(t, cfg)
		if got := fibFingerprint(SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(3)})); got != want {
			t.Fatalf("trial %d (%s): first simulation differs from fresh", trial, nw.name)
		}
		for step := 0; step < 12; step++ {
			var log []string
			n := rng.Intn(3)
			calls[n]++
			if n == 0 && rng.Intn(2) == 0 {
				log = append(log, ed.edit()) // unseen until the next InvalidateFilters
			}
			for c := 0; c < n; c++ {
				if rng.Intn(4) > 0 {
					log = append(log, ed.edit())
				}
				view.InvalidateFilters()
			}
			if n > 0 {
				want = freshFingerprint(t, cfg)
			}
			snap := SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(3)})
			if got := fibFingerprint(snap); got != want {
				t.Fatalf("trial %d (%s) step %d: delta FIBs differ from the expected ones after %d InvalidateFilters calls and edits %v",
					trial, nw.name, step, n, log)
			}
		}
		for k, v := range ed.kinds {
			kinds[k] += v
		}
	}
	// The sequences must have exercised every edit kind, every kind of
	// attachment point and every number of InvalidateFilters calls.
	for _, k := range []string{"add-deny-ospf", "add-deny-rip", "add-deny-eigrp", "add-deny-bgp",
		"remove-deny", "detach", "attach", "add-ranged", "remove-ranged"} {
		if kinds[k] == 0 {
			t.Errorf("no %s edit was exercised (%v)", k, kinds)
		}
	}
	for n := 0; n < 3; n++ {
		if calls[n] == 0 {
			t.Errorf("no step with %d InvalidateFilters calls", n)
		}
	}
}

// TestDeltaCarriesCleanPrefixesForward pins that the delta path is taken:
// with nothing invalidated every destination column is the previous one,
// and one exact deny rebuilds exactly that prefix's column and OSPF row.
// The other columns are each Snapshot's own, computed on read, so they
// are compared by value.
func TestDeltaCarriesCleanPrefixesForward(t *testing.T) {
	cfg, err := netgen.ByID("D") // Bics: OSPF only
	if err != nil {
		t.Fatal(err)
	}
	net, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	view, err := Build(net)
	if err != nil {
		t.Fatal(err)
	}
	first := SimulateNet(view)
	rows := view.last.ospfRows
	sameColumn := func(a, b []*Route) bool { return &a[0] == &b[0] }

	if d := view.InvalidateFilters(); !d.Empty() {
		t.Fatal("no-op InvalidateFilters reported a change")
	}
	again := SimulateNet(view)
	for pi, col := range first.cols {
		if !first.tab.dest[pi] {
			if !sameRouteValues(again.column(int32(pi)), first.column(int32(pi))) {
				t.Fatalf("%v: on-read column differs although nothing was invalidated", first.tab.prefixes[pi])
			}
			continue
		}
		if !sameColumn(again.cols[pi], col) {
			t.Fatalf("%v: column rebuilt although nothing was invalidated", first.tab.prefixes[pi])
		}
	}

	// Deny one host prefix on one OSPF interface.
	host := net.Hosts()[0]
	pfx := view.HostPrefix[host]
	r := net.Routers()[0]
	d := net.Device(r)
	if d.OSPF.InFilters == nil {
		d.OSPF.InFilters = map[string]string{}
	}
	d.OSPF.InFilters[d.Interfaces[0].Name] = "ONE"
	d.EnsurePrefixList("ONE").Deny(pfx)
	view.InvalidateFilters()
	denied := SimulateNet(view)
	for pi, p := range denied.tab.prefixes {
		if !denied.tab.dest[pi] {
			if !sameRouteValues(denied.column(int32(pi)), again.column(int32(pi))) {
				t.Fatalf("on-read column %v changed after a deny of %v", p, pfx)
			}
			continue
		}
		if shared := sameColumn(denied.cols[pi], again.cols[pi]); shared == (p == pfx) {
			t.Fatalf("column %v: shared = %v after a deny of %v", p, shared, pfx)
		}
	}
	for _, pi := range view.core.ospf.prefixes {
		p := view.core.tab.prefixes[pi]
		if !view.core.tab.dest[pi] {
			continue // no remembered row; its column compared by value above
		}
		if same := &view.last.ospfRows[pi][0] == &rows[pi][0]; same == (p == pfx) {
			t.Fatalf("row %v: reused = %v after a deny of %v", p, same, pfx)
		}
	}
	if got, want := fibFingerprint(SimulateNet(view)), freshFingerprint(t, net); got != want {
		t.Fatal("delta FIBs differ from fresh simulation")
	}
}

// TestDeltaConcurrentSimulate simulates one Net from several goroutines
// after each round of filter edits (run it under -race): every delta
// result must equal the fresh simulation, whichever goroutine's result
// the next round builds on.
func TestDeltaConcurrentSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s, err := netgen.ByID("C") // Backbone: OSPF + BGP
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ed := newFilterEditor(cfg, rng)
	view, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		if round > 0 {
			ed.edit()
			view.InvalidateFilters()
		}
		want := freshFingerprint(t, cfg)
		got := make([]string, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = fibFingerprint(SimulateNetOpts(view, Options{Parallelism: 2}))
			}(i)
		}
		wg.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("round %d goroutine %d: delta FIBs differ from fresh simulation", round, i)
			}
		}
	}
}

// randomBGPNet is a random BGP+OSPF network: two or three ASes, each a
// random connected OSPF domain with an iBGP full mesh, joined by eBGP
// links between random routers, with hosts originated into BGP.
func randomBGPNet(t *testing.T, rng *rand.Rand) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.BGPOSPF)
	var all []string
	for as := 1; as <= 2+rng.Intn(2); as++ {
		n := 3 + rng.Intn(4)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("a%dr%d", as, i)
			b.RouterAS(names[i], 65000+as)
			if i > 0 {
				b.Link(names[i], names[rng.Intn(i)])
			}
		}
		if len(all) > 0 {
			b.Link(names[rng.Intn(n)], all[rng.Intn(len(all))])
		}
		all = append(all, names...)
	}
	for h := 0; h < 2+rng.Intn(3); h++ {
		b.Host(fmt.Sprintf("h%02d", h), all[rng.Intn(len(all))])
	}
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// addTwins gives up to max hosts (all when max is 0) a twin host on the
// same router, as the anonymity stage does, and returns the twins'
// prefixes.
func addTwins(t *testing.T, cfg *config.Network, view *Net, max int) []netip.Prefix {
	t.Helper()
	pool := netbuild.PoolFor(cfg)
	var out []netip.Prefix
	for i, h := range cfg.Hosts() {
		if max > 0 && i == max {
			break
		}
		gw := view.GatewayOf[h]
		pfx, err := netbuild.AddHostLAN(cfg, pool, h+"-fk1", gw, netbuild.HostOpts{Injected: true, AdvertiseBGP: cfg.Device(gw).BGP != nil})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pfx)
	}
	return out
}

// addFakeLink links two random routers that share no link yet, as the
// topology stage does.
func addFakeLink(t *testing.T, cfg *config.Network, view *Net, rng *rand.Rand) {
	t.Helper()
	routers := cfg.Routers()
	for {
		a, b := routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]
		if a == b || view.LinkBetween(a, b) != nil {
			continue
		}
		if _, err := netbuild.AddP2PLink(cfg, netbuild.PoolFor(cfg), a, b, netbuild.LinkOpts{Injected: true}); err != nil {
			t.Fatal(err)
		}
		return
	}
}

// TestSeededBuildMatchesFresh is the seeded-build differential test. A
// network is simulated (sometimes through filter-edit deltas), edited in
// place with twin hosts (netbuild.AddHostLAN) or, separately, a fake link
// (netbuild.AddP2PLink), sometimes given one more filter edit, and built
// again by BuildFrom over the old Snapshot. The seeded Net's first
// simulation, run by four goroutines at once at Parallelism 1 and 3, must
// equal a fresh Build + Simulate, and so must each delta after further
// filter edits.
func TestSeededBuildMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	type network struct {
		name string
		cfg  func() *config.Network
	}
	var nets []network
	for i := 0; i < 2; i++ {
		nets = append(nets,
			network{"ospf", func() *config.Network { return randomSimNet(t, netgen.OSPF, rng) }},
			network{"rip", func() *config.Network { return randomSimNet(t, netgen.RIP, rng) }},
			network{"eigrp", func() *config.Network { return randomSimNet(t, netgen.EIGRP, rng) }},
			network{"bgp", func() *config.Network { return randomBGPNet(t, rng) }},
			network{"mixed", func() *config.Network { return mixedSimNet(t, rng) }},
		)
	}
	// FatTree08 has its own test below, and USCarrier, the same OSPF
	// generator as Bics and Columbus, would cost twice the rest together.
	catalog := catalogNets(t)
	delete(catalog, "F")
	var ids []string
	for id := range catalog {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		nets = append(nets, network{id, catalog[id].Clone})
	}
	carried := map[string]int{}
	for trial, nw := range nets {
		for _, edit := range []string{"twins", "link"} {
			cfg := nw.cfg()
			ed := newFilterEditor(cfg, rng)
			view, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prev := SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(3)})
			for r := rng.Intn(3); r > 0; r-- {
				ed.edit()
				view.InvalidateFilters()
				prev = SimulateNetOpts(view, Options{Parallelism: 1 + rng.Intn(3)})
			}
			if edit == "twins" {
				addTwins(t, cfg, view, 1+rng.Intn(3))
			} else {
				addFakeLink(t, cfg, view, rng)
			}
			if rng.Intn(2) == 0 {
				ed.edit()
			}
			seeded, diff, err := BuildFrom(cfg, prev)
			if err != nil {
				t.Fatal(err)
			}
			if !diff.All() {
				carried[edit]++
			}
			want := freshFingerprint(t, cfg)
			got := make([]string, 4)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = fibFingerprint(SimulateNetOpts(seeded, Options{Parallelism: 1 + 2*(i%2)}))
				}(i)
			}
			wg.Wait()
			for i, fp := range got {
				if fp != want {
					t.Fatalf("trial %d (%s, %s) goroutine %d: seeded simulation differs from fresh", trial, nw.name, edit, i)
				}
			}
			for step := 0; step < 2; step++ {
				ed.edit()
				seeded.InvalidateFilters()
				if got := fibFingerprint(SimulateNetOpts(seeded, Options{Parallelism: 1 + rng.Intn(3)})); got != freshFingerprint(t, cfg) {
					t.Fatalf("trial %d (%s, %s) step %d: delta over the seeded Net differs from fresh", trial, nw.name, edit, step)
				}
			}
		}
	}
	// The twins must have let columns carry over in most trials; a fake
	// link changes the adjacencies unless it runs no protocol in common.
	if carried["twins"] < len(nets)/2 {
		t.Errorf("columns carried over in only %d of %d twin trials", carried["twins"], len(nets))
	}
	t.Logf("columns carried over in %d twin and %d fake-link trials of %d each", carried["twins"], carried["link"], len(nets))
}

// TestSeededBuildWithoutSeedDevice drops one of the seed's hosts and adds
// twins: the new configuration cannot extend the seed's device table, so
// BuildFrom builds it in name order and marks every prefix, and its
// simulation equals a fresh one.
func TestSeededBuildWithoutSeedDevice(t *testing.T) {
	for _, id := range []string{"A", "G"} {
		spec, err := netgen.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		view, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := SimulateNetOpts(view, Options{Parallelism: 2})
		addTwins(t, cfg, view, 2)
		delete(cfg.Devices, cfg.Hosts()[len(cfg.Hosts())-1])
		seeded, diff, err := BuildFrom(cfg, prev)
		if err != nil {
			t.Fatal(err)
		}
		snap := SimulateNetOpts(seeded, Options{Parallelism: 2})
		if !diff.All() || !slices.IsSorted(snap.Devices()) {
			t.Fatalf("%s: a seed device is gone, yet BuildFrom carried columns (all dirty: %v) or extended the seed's table", id, diff.All())
		}
		if fibFingerprint(snap) != freshFingerprint(t, cfg) {
			t.Fatalf("%s: seeded simulation differs from fresh", id)
		}
	}
}

// TestSeededBuildCarriesUnchangedColumns pins what the seeded build
// carries on FatTree08: its twins make exactly the twin LANs and
// 0.0.0.0/0 (each twin host's static default) dirty, every other
// destination column keeps the previous Snapshot's routes, every
// on-read column equals the previous Snapshot's by value, and the SPF
// DistMatrix is shared.
func TestSeededBuildCarriesUnchangedColumns(t *testing.T) {
	cfg, err := netgen.FatTree08()
	if err != nil {
		t.Fatal(err)
	}
	prev, err := SimulateOpts(cfg, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := addTwins(t, cfg, prev.Net, 0)
	if len(want) != 64 {
		t.Fatalf("%d twins, want 64", len(want))
	}
	want = append(want, netip.MustParsePrefix("0.0.0.0/0"))
	view, diff, err := BuildFrom(cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(want, func(a, b netip.Prefix) int { return a.Addr().Compare(b.Addr()) })
	if got := diff.Prefixes(); !slices.Equal(got, want) {
		t.Fatalf("seeded build left %d prefixes dirty, want the %d twin LANs and 0.0.0.0/0: %v", len(got), len(want)-1, got)
	}
	snap := SimulateNetOpts(view, Options{Parallelism: 2})
	if snap.OSPFDist != prev.OSPFDist {
		t.Fatal("the SPF DistMatrix was not shared")
	}
	for pi, p := range snap.tab.prefixes {
		if slices.Contains(want, p) {
			continue
		}
		for _, dev := range snap.Devices() {
			got, old := snap.Route(dev, p), prev.Route(dev, p)
			if !snap.tab.dest[pi] {
				if !sameRouteValues([]*Route{got}, []*Route{old}) {
					t.Fatalf("%s's on-read route to %v differs: %v, was %v", dev, p, got, old)
				}
				continue
			}
			if got != old {
				t.Fatalf("%s's route to %v was rebuilt: %v, was %v", dev, p, got, old)
			}
		}
	}
	if fibFingerprint(snap) != freshFingerprint(t, cfg) {
		t.Fatal("seeded FIBs differ from a fresh simulation")
	}
}

// TestSeededBuildRouterIDFlip is the router-ID case: B and C both
// originate P (a Null0 static plus a network statement) to their iBGP
// peer A, which sits at equal IGP distance from both and so picks the
// lower originator router ID, B's. A twin LAN on B raises B's fallback
// router ID (its highest interface address) above C's, and A's best
// route toward P flips to C. No adjacency changes, so the seeded build
// carries columns, but not P's.
func TestSeededBuildRouterIDFlip(t *testing.T) {
	b := netgen.NewBuilder(netgen.BGPOSPF)
	for _, r := range []string{"A", "B", "C"} {
		b.RouterAS(r, 65000)
	}
	b.Link("A", "B")
	b.Link("A", "C")
	b.Host("hs", "A")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := netip.MustParsePrefix("192.168.50.0/24")
	for _, r := range []string{"B", "C"} {
		d := cfg.Device(r)
		d.Statics = append(d.Statics, config.StaticRoute{Prefix: p, Discard: true})
		d.BGP.Networks = append(d.BGP.Networks, p)
	}
	prev, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	nextHop := func(s *Snapshot) string { return s.NextHopRouters("A", p)[0] }
	if got := nextHop(prev); got != "B" {
		t.Fatalf("A routes %v via %s before the twin, want B", p, got)
	}
	pool := netbuild.PoolFor(cfg)
	if _, err := netbuild.AddHostLAN(cfg, pool, "hb-fk1", "B", netbuild.HostOpts{Injected: true, AdvertiseBGP: true}); err != nil {
		t.Fatal(err)
	}
	view, diff, err := BuildFrom(cfg, prev)
	if err != nil {
		t.Fatal(err)
	}
	if diff.All() {
		t.Fatal("a twin LAN changed the adjacencies; the case no longer carries columns")
	}
	snap := SimulateNet(view)
	if got := nextHop(snap); got != "C" {
		t.Fatalf("A routes %v via %s after the twin raised B's router ID, want C", p, got)
	}
	if fibFingerprint(snap) != freshFingerprint(t, cfg) {
		t.Fatal("seeded FIBs differ from a fresh simulation")
	}
}
