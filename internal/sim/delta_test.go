package sim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"confmask/internal/config"
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
			d.RIP = &config.RIP{Networks: all}
		}
		if rng.Intn(3) == 0 {
			d.EIGRP = &config.EIGRP{ASN: 7, Networks: all}
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
// with nothing invalidated every FIB and OSPF row is the previous one,
// and one exact deny recomputes only that prefix's row.
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

	if d := view.InvalidateFilters(); !d.Empty() {
		t.Fatal("no-op InvalidateFilters reported a change")
	}
	again := SimulateNet(view)
	for dev, fib := range first.FIBs {
		if reflect.ValueOf(again.FIBs[dev]).Pointer() != reflect.ValueOf(fib).Pointer() {
			t.Fatalf("%s: FIB rebuilt although nothing was invalidated", dev)
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
	SimulateNet(view)
	core := view.core.ospf
	for pi, p := range core.prefixes {
		same := &view.last.ospfRows[pi][0] == &rows[pi][0]
		if same == (p == pfx) {
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
