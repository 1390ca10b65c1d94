package sim

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

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
	// ospfLinks / ripLinks / eigrpLinks hold, per router, the adjacencies
	// over which the protocol exchanges routes (both endpoint interfaces
	// enabled), in linksOf order.
	ospfLinks  map[string][]adjacency
	ripLinks   map[string][]adjacency
	eigrpLinks map[string][]adjacency
	// ripSpeakers / eigrpSpeakers / bgpSpeakers list the routers running
	// each protocol, in Routers() order; asn maps each BGP speaker to its
	// AS number.
	ripSpeakers   []string
	eigrpSpeakers []string
	bgpSpeakers   []string
	asn           map[string]int
	// sessions is the discovered BGP session graph.
	sessions []bgpSession
}

// adjacency is one router's end of a link over which a protocol exchanges
// routes: the local interface, the neighbor, and the metric the local
// interface adds to a route learned over it (its OSPF cost, its EIGRP
// delay, or RIP's one hop).
type adjacency struct {
	iface  string
	nb     string
	metric int
}

// prefixTable is the two axes of a Snapshot's route columns. Prefixes are
// interned in address order: every interface subnet, static prefix and BGP
// network statement, which are the only places a route's prefix can come
// from (a protocol yielding a prefix outside the table is a bug, and
// index panics on it). Devices are the dense Cfg.Names() order the
// data-plane engines walk in.
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
// other column is computed on first read (see Snapshot.column).
type prefixTable struct {
	prefixes []netip.Prefix
	idx      map[netip.Prefix]int32
	dest     []bool
	devices  []string
	devIdx   map[string]int32
	// fixed[pi] lists the connected or static route of every device that
	// has one for prefix pi, in device order.
	fixed [][]devRoute
	// origins[pi] lists what puts prefix pi into routing, in device
	// order; see origin.
	origins [][]origin
}

// origin is one device's way of putting a prefix into routing: an
// addressed interface in it, with the protocols the interface runs, or a
// BGP network statement for it, with the speaker's router ID (BGP breaks
// ties on the originator's ID) and whether the speaker has a static
// route for it (which lets it originate the prefix). Beside the
// adjacencies, a prefix's origins, fixed candidates and filters are
// everything a simulation reads about it, which is what lets BuildFrom
// carry its column from one Net to another.
type origin struct {
	dev   string
	iface string // "" for a network statement
	// ospf and eigrp are the interface's OSPF cost and EIGRP delay, -1
	// when it does not run the protocol; rip reports whether it runs RIP.
	ospf, eigrp int
	rip         bool
	bgpID       netip.Addr
	static      bool
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

// buildPrefixTable interns the Net's prefixes and devices, records each
// prefix's origins and destinations and derives every device's connected
// and static routes.
func (n *Net) buildPrefixTable() *prefixTable {
	names := n.Cfg.Names()
	t := &prefixTable{devices: names, devIdx: make(map[string]int32, len(names))}
	origins := make(map[netip.Prefix][]origin)
	dests := make(map[netip.Prefix]bool)
	for i, name := range names {
		t.devIdx[name] = int32(i)
		d := n.Cfg.Device(name)
		for _, ifc := range d.Interfaces {
			if !ifc.Addr.IsValid() {
				continue
			}
			o := origin{dev: name, iface: ifc.Name, ospf: -1, eigrp: -1, rip: ripEnabled(d, ifc)}
			if ospfEnabled(d, ifc) {
				o.ospf = ifc.Cost()
			}
			if eigrpEnabled(d, ifc) {
				o.eigrp = ifc.DelayValue()
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
				origins[p] = append(origins[p], origin{dev: name, ospf: -1, eigrp: -1, bgpID: id, static: static})
				dests[p] = true
			}
		}
	}
	t.prefixes = sortedPrefixes(origins)
	t.idx = make(map[netip.Prefix]int32, len(t.prefixes))
	t.origins = make([][]origin, len(t.prefixes))
	t.dest = make([]bool, len(t.prefixes))
	var bits []int // the table's prefix lengths, each once
	for pi, p := range t.prefixes {
		t.idx[p] = int32(pi)
		t.origins[pi] = origins[p]
		t.dest[pi] = dests[p]
		if !slices.Contains(bits, p.Bits()) {
			bits = append(bits, p.Bits())
		}
	}
	for _, h := range n.Cfg.Hosts() {
		for _, ifc := range n.Cfg.Device(h).Interfaces {
			if !ifc.Addr.IsValid() {
				continue
			}
			for _, b := range bits {
				if pi, ok := t.idx[netip.PrefixFrom(ifc.Addr.Addr(), b).Masked()]; ok {
					t.dest[pi] = true
				}
			}
		}
	}
	t.fixed = make([][]devRoute, len(t.prefixes))
	for i, name := range names {
		n.fixedRoutes(name, func(rt *Route) {
			pi := t.index(rt.Prefix)
			if fs := t.fixed[pi]; len(fs) > 0 && fs[len(fs)-1].dev == int32(i) {
				return // the device's first candidate wins
			}
			t.fixed[pi] = append(t.fixed[pi], devRoute{dev: int32(i), rt: rt})
		})
	}
	return t
}

// fixedRoutes hands every connected and static route candidate of a
// device to add: connected routes first, in interface order, then statics
// in configuration order.
func (n *Net) fixedRoutes(name string, add func(*Route)) {
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
			nhs = append(nhs, NextHop{Device: other.Device, Iface: i.Name})
		}
		if len(nhs) > 0 {
			add(&Route{Prefix: p, Source: SrcConnected, NextHops: sortNextHops(nhs)})
		}
	}

	// Static routes: resolve the next-hop address to a directly connected
	// neighbor. Null0 routes install as discard entries — the anchor
	// operators use to originate aggregates and external
	// equivalence-class prefixes into BGP.
	for _, s := range d.Statics {
		if s.Discard {
			add(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{{Device: DiscardDevice, Iface: "Null0"}}})
			continue
		}
		if nh, ok := n.resolveDirect(name, s.NextHop); ok {
			add(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{nh}})
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
	c := &simCore{
		ospfLinks:  make(map[string][]adjacency),
		ripLinks:   make(map[string][]adjacency),
		eigrpLinks: make(map[string][]adjacency),
		asn:        make(map[string]int),
	}
	for _, r := range n.Cfg.Routers() {
		d := n.Cfg.Device(r)
		if d.RIP != nil {
			c.ripSpeakers = append(c.ripSpeakers, r)
		}
		if d.EIGRP != nil {
			c.eigrpSpeakers = append(c.eigrpSpeakers, r)
		}
		if d.BGP != nil {
			c.bgpSpeakers = append(c.bgpSpeakers, r)
			c.asn[r] = d.BGP.ASN
		}
		for _, l := range n.linksOf[r] {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			li := d.Interface(local.Iface)
			adj := adjacency{iface: local.Iface, nb: other.Device}
			if n.ospfLinkEnabled(l) {
				adj.metric = li.Cost()
				c.ospfLinks[r] = append(c.ospfLinks[r], adj)
			}
			if n.ripLinkEnabled(l) {
				adj.metric = 1
				c.ripLinks[r] = append(c.ripLinks[r], adj)
			}
			if n.eigrpLinkEnabled(l) {
				adj.metric = li.DelayValue()
				c.eigrpLinks[r] = append(c.eigrpLinks[r], adj)
			}
		}
	}
	c.sessions = n.discoverSessions()
	c.tab = n.buildPrefixTable()
	c.ospf = n.buildOSPFCore(c.tab)
	return c
}

// adv is one stub-prefix advertisement into OSPF: the advertising router
// (as an interned id) and the advertising interface's cost.
type adv struct {
	router int32
	cost   int32
}

// buildOSPFCore computes the link-state view: the interned speaker table,
// the CSR cost graph, the on-demand all-pairs DistMatrix, and the
// per-prefix advertisements, indexed by the prefix table. No distances
// are computed here — rows materialize lazily as the route computation
// touches them.
func (n *Net) buildOSPFCore(tab *prefixTable) *ospfCore {
	c := &ospfCore{}
	for _, r := range n.Cfg.Routers() {
		if n.Cfg.Device(r).OSPF != nil {
			c.speakers = append(c.speakers, r)
			c.dev = append(c.dev, tab.devIdx[r])
		}
	}
	if len(c.speakers) == 0 {
		return c
	}

	// Every node of the cost graph is a speaker (ospfLinkEnabled requires
	// OSPF on both endpoints), so interning the speakers covers the graph
	// and isolated speakers alike.
	c.t = internNames(c.speakers)

	// Directed cost graph over enabled router-router links.
	var edges []csrEdge
	for _, l := range n.Links {
		if !n.ospfLinkEnabled(l) {
			continue
		}
		ia := n.Cfg.Device(l.A.Device).Interface(l.A.Iface)
		ib := n.Cfg.Device(l.B.Device).Interface(l.B.Iface)
		ai, _ := c.t.id(l.A.Device)
		bi, _ := c.t.id(l.B.Device)
		edges = append(edges, csrEdge{from: ai, to: bi, cost: clampCost32(ia.Cost()), link: l})
		edges = append(edges, csrEdge{from: bi, to: ai, cost: clampCost32(ib.Cost()), link: l})
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
			if o.ospf >= 0 {
				c.advs[pi] = append(c.advs[pi], adv{router: si, cost: clampCost32(o.ospf)})
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
