package sim

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"confmask/internal/config"
)

// simCore is the filter-independent part of a simulation: everything that
// depends only on devices, interfaces, links, protocol enablement, and
// costs — never on route filters. It is derived once per Net (lazily, on
// the first SimulateNet call) and survives InvalidateFilters, which is what
// lets Algorithm 1 re-simulate after adding distribute-list entries without
// re-running link discovery, SPF, or session discovery.
//
// The contract mirrors the paper's Algorithm 1: the fixing loop only adds
// route filters, so the link-state database, the SPF distances, the
// distance-vector adjacencies, and the BGP session graph are all invariant
// across iterations. Any mutation beyond filters (interfaces, links,
// neighbors, costs, protocol enablement) needs a new Net; BuildFrom seeds
// it with the old one's last Snapshot, comparing the two cores to carry
// over whatever the mutation left unchanged.
type simCore struct {
	// tab indexes every Snapshot's route columns; see prefixTable.
	tab  *prefixTable
	ospf *ospfCore
	// links[p] holds, per router, the adjacencies over which IGP p
	// exchanges routes (see linkEnabled), in linksOf order.
	links [len(config.Protocols)]map[string][]adjacency
	// speakers[p] and bgpSpeakers list the routers running IGP p and BGP,
	// in Routers() order; asn maps each BGP speaker to its AS number.
	speakers    [len(config.Protocols)][]string
	bgpSpeakers []string
	asn         map[string]int
	// sessions is the discovered BGP session graph.
	sessions []bgpSession
}

// adjacency is one router's end of a link over which an IGP exchanges
// routes: the local interface, the neighbor, and the metric the local
// interface adds to a route learned over it (see igpMetric).
type adjacency struct {
	iface  string
	nb     string
	metric int
}

// prefixTable is the two axes of a Snapshot's route columns, and the
// names their next hops index. Prefixes are interned in address order:
// every interface subnet, static prefix and BGP network statement, which
// are the only places a route's prefix can come from (a protocol yielding
// a prefix outside the table is a bug, and index panics on it). Devices
// are the dense table the data-plane engines walk in, and ifaces every
// interface name of every device, plus Null0: a NextHop is an index into
// each. A fresh Build interns both in name order; a Net BuildFrom seeds
// keeps its seed's names at their indices and appends its new ones in
// name order, so next hops carried from the seed stay valid. devRank and
// ifRank rank the names in name order, which is the order sortNextHops
// sorts by, however the names were interned.
//
// Each prefix also keeps its filter-independent candidates: the connected
// and static routes, chosen as a FIB install always has (the first
// addressed interface, then the first resolvable static, that yields next
// hops). Administrative distance 0 and 1 outrank every protocol, so these
// entries are final wherever they exist.
//
// dest marks the destinations: the prefixes containing a host address
// (host LANs and the prefixes covering them, which resolve every
// longest-prefix match toward a host), BGP network statements (their
// RIB-presence check reads the OSPF row) and discard statics' prefixes
// (the external equivalence classes). They are the only columns the
// pipeline reads, and the only ones a simulation computes eagerly; every
// other column is computed on first read (see Snapshot.column). lpm
// records, per host, the destinations its longest-prefix match reads.
type prefixTable struct {
	prefixes []netip.Prefix
	idx      map[netip.Prefix]int32
	dest     []bool
	devices  []string
	devIdx   map[string]int32
	ifaces   []string
	ifIdx    map[string]int32
	// devRank[d] is device d's position in name order, ifRank[i]
	// interface i's. DiscardDev has no rank: a discard route's one next
	// hop is never sorted with another.
	devRank []int32
	ifRank  []int32
	// lpm[di] is host di's longest-prefix-match chain: the index of its
	// LAN prefix, then those of every other table prefix containing its
	// address, longest first; nil for every other device. See
	// destEngine.routeToward.
	lpm [][]int32
	// fixed[pi] lists the connected or static route of every device that
	// has one for prefix pi, in device-name order.
	fixed [][]devRoute
	// origins[pi] lists what puts prefix pi into routing, in device-name
	// order; see origin.
	origins [][]origin
}

// origin is one device's way of putting a prefix into routing: an
// addressed interface in it, with its metric in each IGP it runs, or a
// BGP network statement for it, with the speaker's router ID (BGP breaks
// ties on the originator's ID) and whether the speaker has a static
// route for it (which lets it originate the prefix). Beside the
// adjacencies, a prefix's origins, fixed candidates and filters are
// everything a simulation reads about it, which is what lets BuildFrom
// carry its column from one Net to another.
type origin struct {
	dev   string
	iface string // "" for a network statement
	// igp[p] is the interface's igpMetric in IGP p, 0 when it does not
	// run p (every metric is positive).
	igp    [len(config.Protocols)]int
	bgpID  netip.Addr
	static bool
}

// devRoute is one device's route in a sparse column.
type devRoute struct {
	dev int32
	rt  *Route
}

// index returns p's table index. Every route carries a table prefix, so
// a miss is a simulator bug.
func (t *prefixTable) index(p netip.Prefix) int32 {
	pi, ok := t.idx[p]
	if !ok {
		panic(fmt.Sprintf("sim: route prefix %v outside the prefix table", p))
	}
	return pi
}

// nextHop interns the next hop toward device dev over local interface
// iface. Both names come from the configurations the table was built
// from, so a miss is a simulator bug.
func (t *prefixTable) nextHop(dev, iface string) NextHop {
	di, okd := t.devIdx[dev]
	ii, oki := t.ifIdx[iface]
	if !okd || !oki {
		panic(fmt.Sprintf("sim: next hop %s (%s) outside the device or interface table", dev, iface))
	}
	return NextHop{Dev: di, Iface: ii}
}

// deviceName returns device dev's name, DiscardDevice for DiscardDev.
func (t *prefixTable) deviceName(dev int32) string {
	if dev == DiscardDev {
		return DiscardDevice
	}
	return t.devices[dev]
}

// internTable returns base followed by the names it lacks, in the order
// given, with every name's index and its rank in name order.
func internTable(base, names []string) ([]string, map[string]int32, []int32) {
	out := slices.Clone(base)
	idx := make(map[string]int32, len(base)+len(names))
	for i, name := range base {
		idx[name] = int32(i)
	}
	for _, name := range names {
		if _, ok := idx[name]; !ok {
			idx[name] = int32(len(out))
			out = append(out, name)
		}
	}
	order := make([]int32, len(out))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(out[a], out[b]) })
	rank := make([]int32, len(out))
	for r, i := range order {
		rank[i] = int32(r)
	}
	return out, idx, rank
}

// buildPrefixTable interns the Net's prefixes, devices and interface
// names, records each prefix's origins and destinations and each host's
// longest-prefix-match chain, and derives every device's connected and
// static routes. A Net BuildFrom seeded extends its seed's device and
// interface tables (see prefixTable).
func (n *Net) buildPrefixTable() *prefixTable {
	names := n.Cfg.Names()
	var baseDevs, baseIfaces []string
	if n.seedTab != nil {
		baseDevs, baseIfaces = n.seedTab.devices, n.seedTab.ifaces
	}
	t := &prefixTable{}
	t.devices, t.devIdx, t.devRank = internTable(baseDevs, names)
	ifnames := []string{"Null0"}
	for _, name := range names {
		for _, ifc := range n.Cfg.Device(name).Interfaces {
			ifnames = append(ifnames, ifc.Name)
		}
	}
	sort.Strings(ifnames)
	t.ifaces, t.ifIdx, t.ifRank = internTable(baseIfaces, slices.Compact(ifnames))
	origins := make(map[netip.Prefix][]origin)
	dests := make(map[netip.Prefix]bool)
	for _, name := range names {
		d := n.Cfg.Device(name)
		igps := d.IGPs()
		for _, ifc := range d.Interfaces {
			if !ifc.Addr.IsValid() {
				continue
			}
			o := origin{dev: name, iface: ifc.Name}
			for _, g := range igps {
				if g.Enables(ifc) {
					o.igp[g.Proto] = igpMetric(g.Proto, ifc)
				}
			}
			p := ifc.Addr.Masked()
			origins[p] = append(origins[p], o)
		}
		for _, s := range d.Statics {
			if _, ok := origins[s.Prefix]; !ok {
				origins[s.Prefix] = nil // a table prefix; its candidates are in fixed
			}
			if s.Discard {
				dests[s.Prefix] = true
			}
		}
		if d.BGP != nil {
			id := routerID(d)
			for _, p := range d.BGP.Networks {
				static := slices.ContainsFunc(d.Statics, func(s config.StaticRoute) bool { return s.Prefix == p })
				origins[p] = append(origins[p], origin{dev: name, bgpID: id, static: static})
				dests[p] = true
			}
		}
	}
	t.prefixes = sortedPrefixes(origins)
	t.idx = make(map[netip.Prefix]int32, len(t.prefixes))
	t.origins = make([][]origin, len(t.prefixes))
	t.dest = make([]bool, len(t.prefixes))
	var bits []int // the table's prefix lengths, longest first, each once
	for pi, p := range t.prefixes {
		t.idx[p] = int32(pi)
		t.origins[pi] = origins[p]
		t.dest[pi] = dests[p]
		if !slices.Contains(bits, p.Bits()) {
			bits = append(bits, p.Bits())
		}
	}
	slices.SortFunc(bits, func(a, b int) int { return b - a })
	t.lpm = make([][]int32, len(t.devices))
	for _, h := range n.Cfg.Hosts() {
		for _, ifc := range n.Cfg.Device(h).Interfaces {
			if !ifc.Addr.IsValid() {
				continue
			}
			// The LAN prefix first, then the covering prefixes longest
			// first: one per length at most, as all contain one address.
			lan := t.idx[ifc.Addr.Masked()]
			chain := []int32{lan}
			for _, b := range bits {
				if pi, ok := t.idx[netip.PrefixFrom(ifc.Addr.Addr(), b).Masked()]; ok && pi != lan {
					chain = append(chain, pi)
				}
			}
			for _, pi := range chain {
				t.dest[pi] = true
			}
			t.lpm[t.devIdx[h]] = chain
		}
	}
	t.fixed = make([][]devRoute, len(t.prefixes))
	for _, name := range names {
		di := t.devIdx[name]
		n.fixedRoutes(t, name, func(rt *Route) {
			pi := t.index(rt.Prefix)
			if fs := t.fixed[pi]; len(fs) > 0 && fs[len(fs)-1].dev == di {
				return // the device's first candidate wins
			}
			t.fixed[pi] = append(t.fixed[pi], devRoute{dev: di, rt: rt})
		})
	}
	return t
}

// fixedRoutes hands every connected and static route candidate of a
// device to add: connected routes first, in interface order, then statics
// in configuration order. Next hops are interned in t.
func (n *Net) fixedRoutes(t *prefixTable, name string, add func(*Route)) {
	d := n.Cfg.Device(name)
	// Connected routes: one per addressed interface subnet, with the far
	// ends of matching links as next hops.
	for _, i := range d.Interfaces {
		if !i.Addr.IsValid() {
			continue
		}
		p := i.Addr.Masked()
		var nhs []NextHop
		for _, l := range n.linksOf[name] {
			if l.Prefix != p {
				continue
			}
			local, _ := l.Local(name)
			if local.Iface != i.Name {
				continue
			}
			other, _ := l.Other(name)
			nhs = append(nhs, t.nextHop(other.Device, i.Name))
		}
		if len(nhs) > 0 {
			add(&Route{Prefix: p, Source: SrcConnected, NextHops: t.sortNextHops(nhs)})
		}
	}

	// Static routes: resolve the next-hop address to a directly connected
	// neighbor. Null0 routes install as discard entries — the anchor
	// operators use to originate aggregates and external
	// equivalence-class prefixes into BGP.
	for _, s := range d.Statics {
		if s.Discard {
			add(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{{Dev: DiscardDev, Iface: t.ifIdx["Null0"]}}})
			continue
		}
		if nb, iface, ok := n.resolveDirect(name, s.NextHop); ok {
			add(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{t.nextHop(nb, iface)}})
		}
	}
}

// ospfCore is the link-state part of the OSPF computation: filters only
// remove next-hop candidates at RIB-installation time (IOS semantics), so
// the cost graph, the SPF distances, and the per-prefix advertisements are
// all filter-independent. Per-prefix distance rows are NOT materialized
// here — runOSPF streams them per destination shard from the DistMatrix
// (one pooled []int32 row per in-flight prefix), so core memory is the
// CSR graph plus the distance rows actually touched, never O(prefixes ×
// routers).
type ospfCore struct {
	// speakers lists the OSPF routers in Routers() order; dev[si] is
	// speaker si's index in the device table.
	speakers []string
	dev      []int32
	// t interns the speakers; fwd/dist index nodes by its IDs.
	t *interner
	// fwd is the directed cost graph over OSPF adjacencies in CSR form.
	fwd *csrGraph
	// dist is the all-pairs SPF view with on-demand destination rows.
	dist *DistMatrix
	// prefixes lists the table indices of the prefixes advertised into
	// OSPF, ascending; advs[pi] holds prefix pi's stub-prefix
	// advertisements (nil when it is not advertised).
	prefixes []int32
	advs     [][]adv
	// attached[pi] lists, ascending, the speakers with an addressed
	// interface in prefix pi: their connected route wins, so OSPF never
	// installs one there.
	attached [][]int32
}

// coreFor returns the Net's filter-independent core, building it on first
// use. The once-init makes concurrent SimulateNet calls on the same Net
// safe; workers only sizes the pool used for the initial SPF fan-out.
func (n *Net) coreFor(workers int) *simCore {
	n.coreOnce.Do(func() { n.core = n.buildCore(workers) })
	return n.core
}

// buildCore derives the filter-independent simulation state.
func (n *Net) buildCore(workers int) *simCore {
	c := &simCore{asn: make(map[string]int)}
	for p := range c.links {
		c.links[p] = make(map[string][]adjacency)
	}
	for _, r := range n.Cfg.Routers() {
		d := n.Cfg.Device(r)
		for _, g := range d.IGPs() {
			c.speakers[g.Proto] = append(c.speakers[g.Proto], r)
		}
		if d.BGP != nil {
			c.bgpSpeakers = append(c.bgpSpeakers, r)
			c.asn[r] = d.BGP.ASN
		}
		for _, l := range n.linksOf[r] {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			for _, p := range config.Protocols {
				if n.linkEnabled(l, p) {
					adj := adjacency{iface: local.Iface, nb: other.Device, metric: igpMetric(p, d.Interface(local.Iface))}
					c.links[p][r] = append(c.links[p][r], adj)
				}
			}
		}
	}
	c.sessions = n.discoverSessions()
	c.tab = n.buildPrefixTable()
	n.seedTab = nil
	c.ospf = buildOSPFCore(c.tab, c.speakers[config.ProtoOSPF], c.links[config.ProtoOSPF])
	return c
}

// linkEnabled reports whether a router-router link exchanges routes of
// IGP p: both endpoint interfaces must run it, and EIGRP processes must
// share an AS number (EIGRP only peers within an AS).
func (n *Net) linkEnabled(l *Link, p config.Protocol) bool {
	da, db := n.Cfg.Device(l.A.Device), n.Cfg.Device(l.B.Device)
	if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
		return false
	}
	ga, gb := da.IGP(p), db.IGP(p)
	if ga == nil || gb == nil || p == config.ProtoEIGRP && ga.ID != gb.ID {
		return false
	}
	return ga.Enables(da.Interface(l.A.Iface)) && gb.Enables(db.Interface(l.B.Iface))
}

// igpMetric is the metric an interface running IGP p originates its
// prefix at and adds to every route learned over it: its OSPF cost, RIP's
// one hop, or its EIGRP delay.
func igpMetric(p config.Protocol, i *config.Interface) int {
	switch p {
	case config.ProtoOSPF:
		return i.Cost()
	case config.ProtoEIGRP:
		return i.DelayValue()
	}
	return 1
}

// adv is one stub-prefix advertisement into OSPF: the advertising router
// (as an interned id) and the advertising interface's cost.
type adv struct {
	router int32
	cost   int32
}

// buildOSPFCore computes the link-state view over the OSPF speakers and
// their adjacencies: the interned speaker table, the CSR cost graph, the
// on-demand all-pairs DistMatrix, and the per-prefix advertisements,
// indexed by the prefix table. No distances are computed here — rows
// materialize lazily as the route computation touches them.
func buildOSPFCore(tab *prefixTable, speakers []string, links map[string][]adjacency) *ospfCore {
	c := &ospfCore{speakers: speakers}
	for _, r := range speakers {
		c.dev = append(c.dev, tab.devIdx[r])
	}
	if len(c.speakers) == 0 {
		return c
	}

	// Every node of the cost graph is a speaker (linkEnabled requires
	// OSPF on both endpoints), so interning the speakers covers the graph
	// and isolated speakers alike.
	c.t = internNames(c.speakers)

	// Directed cost graph: one arc per adjacency, at the local cost.
	var edges []csrEdge
	for _, r := range speakers {
		ri, _ := c.t.id(r)
		for _, a := range links[r] {
			nb, _ := c.t.id(a.nb)
			edges = append(edges, csrEdge{from: ri, to: nb, cost: clampCost32(a.metric), nh: tab.nextHop(a.nb, a.iface)})
		}
	}
	c.fwd = buildCSR(c.t, edges)
	c.dist = newDistMatrix(c.fwd.reverse())

	// Advertised stub prefixes: every enabled connected interface prefix,
	// at the advertising interface's cost. Speaker ids are the speakers'
	// Routers() positions, since both orders sort by name.
	c.advs = make([][]adv, len(tab.prefixes))
	c.attached = make([][]int32, len(tab.prefixes))
	for pi, os := range tab.origins {
		for _, o := range os {
			si, ok := c.t.id(o.dev)
			if !ok || o.iface == "" {
				continue
			}
			if as := c.attached[pi]; len(as) == 0 || as[len(as)-1] != si {
				c.attached[pi] = append(as, si)
			}
			if m := o.igp[config.ProtoOSPF]; m > 0 {
				c.advs[pi] = append(c.advs[pi], adv{router: si, cost: clampCost32(m)})
			}
		}
	}
	for pi, as := range c.advs {
		if as != nil {
			c.prefixes = append(c.prefixes, int32(pi))
		}
	}
	return c
}

// sortedPrefixes returns the map's keys in address order.
func sortedPrefixes[V any](m map[netip.Prefix]V) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}
