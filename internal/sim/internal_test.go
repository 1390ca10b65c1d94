package sim

import (
	"net/netip"
	"testing"
	"testing/quick"

	"confmask/internal/config"
)

// testMatrix builds a DistMatrix over the named nodes and directed edges.
func testMatrix(nodes []string, edges [][3]any) *DistMatrix {
	t := internNames(nodes)
	es := make([]csrEdge, 0, len(edges))
	for _, e := range edges {
		f, _ := t.id(e[0].(string))
		to, _ := t.id(e[1].(string))
		es = append(es, csrEdge{from: f, to: to, cost: int32(e[2].(int))})
	}
	return newDistMatrix(buildCSR(t, es).reverse())
}

func TestDistMatrixDijkstra(t *testing.T) {
	m := testMatrix([]string{"a", "b", "c", "d"}, [][3]any{
		{"a", "b", 1}, {"b", "c", 2}, {"a", "c", 10}, {"c", "d", 1},
	})
	want := map[string]int{"a": 0, "b": 1, "c": 3, "d": 4}
	for n, d := range want {
		got, ok := m.Dist("a", n)
		if !ok || got != d {
			t.Fatalf("dist a→%s = %d,%v, want %d", n, got, ok, d)
		}
	}
	if _, ok := m.Dist("a", "missing"); ok {
		t.Fatal("unknown node reachable")
	}
	if _, ok := m.Dist("d", "a"); ok {
		t.Fatal("unreachable pair reported reachable")
	}
}

func TestDistMatrixAsymmetric(t *testing.T) {
	// Different costs per direction, as OSPF allows.
	m := testMatrix([]string{"a", "b"}, [][3]any{{"a", "b", 1}, {"b", "a", 7}})
	if d, ok := m.Dist("a", "b"); !ok || d != 1 {
		t.Fatalf("a→b = %d,%v", d, ok)
	}
	if d, ok := m.Dist("b", "a"); !ok || d != 7 {
		t.Fatalf("b→a = %d,%v", d, ok)
	}
}

func TestDistMatrixIsolatedSpeaker(t *testing.T) {
	// A speaker with no enabled links is interned but reaches only itself,
	// like the old allPairs "extra sources" behavior.
	m := testMatrix([]string{"a", "b", "isolated"}, [][3]any{{"a", "b", 1}})
	if d, ok := m.Dist("isolated", "isolated"); !ok || d != 0 {
		t.Fatalf("self distance = %d,%v", d, ok)
	}
	if _, ok := m.Dist("isolated", "a"); ok {
		t.Fatal("isolated node reaches a")
	}
	if _, ok := m.Dist("a", "isolated"); ok {
		t.Fatal("a reaches isolated node")
	}
	if _, ok := (*DistMatrix)(nil).Dist("a", "b"); ok {
		t.Fatal("nil matrix must report unreachable")
	}
}

// nameTable is a prefix table holding only device and interface names,
// interned in the order given (not name order), as a seeded Net's are.
func nameTable(devices, ifaces []string) *prefixTable {
	t := &prefixTable{}
	t.devices, t.devIdx, t.devRank = internTable(nil, devices)
	t.ifaces, t.ifIdx, t.ifRank = internTable(nil, ifaces)
	return t
}

func TestSortNextHopsDedup(t *testing.T) {
	tab := nameTable([]string{"b", "a"}, []string{"i2", "i1"})
	in := []NextHop{
		tab.nextHop("b", "i1"),
		tab.nextHop("a", "i2"),
		tab.nextHop("b", "i1"),
		tab.nextHop("a", "i1"),
	}
	got := tab.sortNextHops(in)
	if len(got) != 3 {
		t.Fatalf("dedup failed: %v", got)
	}
	if got[0] != tab.nextHop("a", "i1") || got[2] != tab.nextHop("b", "i1") {
		t.Fatalf("order wrong: %v", got)
	}
}

// Property: sortNextHops is idempotent and never grows the slice.
func TestSortNextHopsProperties(t *testing.T) {
	tab := nameTable([]string{"e", "c", "a", "d", "b"}, []string{"z", "x", "y"})
	f := func(raw []uint8) bool {
		in := make([]NextHop, 0, len(raw))
		for _, v := range raw {
			in = append(in, tab.nextHop(string(rune('a'+v%5)), string(rune('x'+v%3))))
		}
		once := tab.sortNextHops(append([]NextHop(nil), in...))
		twice := tab.sortNextHops(append([]NextHop(nil), once...))
		if len(once) > len(in) || len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBGPBetterDecisionOrder(t *testing.T) {
	n := &Net{Cfg: config.NewNetwork()}
	igp := &ospfState{dist: testMatrix([]string{"r", "near", "far"}, [][3]any{
		{"r", "near", 1}, {"r", "far", 9},
	})}
	short := bgpRoute{asPath: []int{1}}
	long := bgpRoute{asPath: []int{1, 2}}
	if !bgpBetter(n, igp, "r", short, long) || bgpBetter(n, igp, "r", long, short) {
		t.Fatal("AS-path length must dominate")
	}
	ebgp := bgpRoute{asPath: []int{1}, fromIBGP: false, peer: "x"}
	ibgp := bgpRoute{asPath: []int{1}, fromIBGP: true, peer: "near"}
	if !bgpBetter(n, igp, "r", ebgp, ibgp) {
		t.Fatal("eBGP must beat iBGP at equal path length")
	}
	nearR := bgpRoute{asPath: []int{1}, fromIBGP: true, peer: "near"}
	farR := bgpRoute{asPath: []int{1}, fromIBGP: true, peer: "far"}
	if !bgpBetter(n, igp, "r", nearR, farR) {
		t.Fatal("lower IGP metric to egress must win")
	}
	a := bgpRoute{asPath: []int{1}, peer: "p1", peerID: netip.MustParseAddr("1.1.1.1")}
	b := bgpRoute{asPath: []int{1}, peer: "p2", peerID: netip.MustParseAddr("2.2.2.2")}
	if !bgpBetter(n, igp, "r", a, b) || bgpBetter(n, igp, "r", b, a) {
		t.Fatal("router-ID tiebreak wrong")
	}
}

func TestAdvertiseRules(t *testing.T) {
	origin := bgpRoute{prefix: netip.MustParsePrefix("10.1.0.0/24"), peer: ""}
	// eBGP prepends the sender AS.
	out, ok := advertise(origin, 65001, true, "s")
	if !ok || len(out.asPath) != 1 || out.asPath[0] != 65001 || out.fromIBGP {
		t.Fatalf("eBGP advertise = %+v", out)
	}
	// iBGP propagates local/eBGP-learned routes with next-hop-self.
	out, ok = advertise(origin, 65001, false, "s")
	if !ok || !out.fromIBGP || out.peer != "s" || len(out.asPath) != 0 {
		t.Fatalf("iBGP advertise = %+v", out)
	}
	// iBGP-learned routes are NOT re-advertised over iBGP.
	if _, ok := advertise(bgpRoute{fromIBGP: true}, 65001, false, "s"); ok {
		t.Fatal("iBGP re-advertisement must be suppressed")
	}
}

func TestContainsAS(t *testing.T) {
	if !containsAS([]int{1, 2, 3}, 2) || containsAS([]int{1, 3}, 2) || containsAS(nil, 1) {
		t.Fatal("containsAS wrong")
	}
}

func TestDeniesCache(t *testing.T) {
	d := &config.Device{Hostname: "r"}
	pl := d.EnsurePrefixList("L")
	p1 := netip.MustParsePrefix("10.1.0.0/24")
	p2 := netip.MustParsePrefix("10.2.0.0/24")
	pl.Deny(p1)
	pl.Rules = append(pl.Rules, config.PrefixRule{Seq: 100, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32})
	cfg := config.NewNetwork()
	cfg.Add(d)
	n := &Net{Cfg: cfg}
	n.buildDenyCache()
	if !n.denies(d, "L", p1) {
		t.Fatal("deny missed")
	}
	if n.denies(d, "L", p2) {
		t.Fatal("phantom deny")
	}
	if n.denies(d, "MISSING", p1) {
		t.Fatal("missing list denied")
	}
	// Cached decision stays stable.
	if !n.denies(d, "L", p1) || n.denies(d, "L", p2) {
		t.Fatal("cache inconsistent")
	}
	// Filter mutations are invisible until InvalidateFilters re-derives
	// the cache — the contract Algorithm 1's incremental loop relies on.
	// Use a tail-free list: Deny appends, and a permit-any tail would
	// shadow the new rule under first-match-wins.
	plN := d.EnsurePrefixList("N")
	plN.Deny(p1)
	n.InvalidateFilters()
	plN.Deny(p2)
	if n.denies(d, "N", p2) {
		t.Fatal("cache updated without InvalidateFilters")
	}
	n.InvalidateFilters()
	if !n.denies(d, "N", p2) {
		t.Fatal("InvalidateFilters missed new deny")
	}
	plN.RemoveDeny(p2)
	n.InvalidateFilters()
	if n.denies(d, "N", p2) {
		t.Fatal("InvalidateFilters kept removed deny")
	}
}

func TestDeniesRangedDenyRule(t *testing.T) {
	// A deny carrying `le` must match every covered longer prefix — the
	// simulator used to skip all ranged rules, silently ignoring such
	// denies even though the rendered config enforces them.
	d := &config.Device{Hostname: "r"}
	pl := d.EnsurePrefixList("L")
	pl.Rules = append(pl.Rules,
		config.PrefixRule{Seq: 5, Deny: true, Prefix: netip.MustParsePrefix("10.1.0.0/16"), Le: 32},
		config.PrefixRule{Seq: 10, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32},
	)
	cfg := config.NewNetwork()
	cfg.Add(d)
	n := &Net{Cfg: cfg}
	n.buildDenyCache()
	if !n.denies(d, "L", netip.MustParsePrefix("10.1.2.0/24")) {
		t.Fatal("ranged deny skipped")
	}
	if !n.denies(d, "L", netip.MustParsePrefix("10.1.0.0/16")) {
		t.Fatal("ranged deny missed exact prefix")
	}
	if n.denies(d, "L", netip.MustParsePrefix("10.2.0.0/24")) {
		t.Fatal("ranged deny over-matched")
	}
	// First-match-wins: an earlier exact permit shields a later ranged deny.
	pl2 := d.EnsurePrefixList("M")
	pl2.Rules = append(pl2.Rules,
		config.PrefixRule{Seq: 5, Prefix: netip.MustParsePrefix("10.1.2.0/24")},
		config.PrefixRule{Seq: 10, Deny: true, Prefix: netip.MustParsePrefix("10.1.0.0/16"), Le: 32},
	)
	n.InvalidateFilters()
	if n.denies(d, "M", netip.MustParsePrefix("10.1.2.0/24")) {
		t.Fatal("permit before ranged deny ignored")
	}
	if !n.denies(d, "M", netip.MustParsePrefix("10.1.3.0/24")) {
		t.Fatal("ranged deny after permit skipped")
	}
}

func TestRouteSourceOrderMatchesAdminDistance(t *testing.T) {
	order := []Source{SrcConnected, SrcStatic, SrcEBGP, SrcEIGRP, SrcOSPF, SrcRIP, SrcIBGP}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("source order broken at %v", order[i])
		}
	}
	names := map[Source]string{
		SrcConnected: "connected", SrcStatic: "static", SrcEBGP: "ebgp",
		SrcEIGRP: "eigrp", SrcOSPF: "ospf", SrcRIP: "rip", SrcIBGP: "ibgp",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestLinkAccessors(t *testing.T) {
	l := &Link{
		Prefix: netip.MustParsePrefix("10.0.0.0/31"),
		A:      End{Device: "a", Iface: "ia"},
		B:      End{Device: "b", Iface: "ib"},
	}
	if o, ok := l.Other("a"); !ok || o.Device != "b" {
		t.Fatal("Other(a) wrong")
	}
	if o, ok := l.Local("b"); !ok || o.Iface != "ib" {
		t.Fatal("Local(b) wrong")
	}
	if _, ok := l.Other("z"); ok {
		t.Fatal("Other(z) should fail")
	}
	if _, ok := l.Local("z"); ok {
		t.Fatal("Local(z) should fail")
	}
}

func TestPathStatusStrings(t *testing.T) {
	if Delivered.String() != "delivered" || Looped.String() != "looped" || BlackHoled.String() != "blackholed" {
		t.Fatal("status strings wrong")
	}
}

func TestFIBPrefixesSorted(t *testing.T) {
	f := make(FIB)
	for _, s := range []string{"10.2.0.0/24", "10.1.0.0/24", "10.1.0.0/16"} {
		p := netip.MustParsePrefix(s)
		f[p] = &Route{Prefix: p}
	}
	ps := f.Prefixes()
	if len(ps) != 3 || ps[0].String() != "10.1.0.0/16" || ps[2].String() != "10.2.0.0/24" {
		t.Fatalf("prefixes = %v", ps)
	}
}
