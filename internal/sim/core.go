package sim

import (
	"net/netip"
	"sort"
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
// neighbors, costs, protocol enablement) requires a fresh Build.
type simCore struct {
	ospf *ospfCore
	// ospfLinks / ripLinks / eigrpLinks hold, per router, the incident
	// links over which the protocol exchanges routes (both endpoint
	// interfaces enabled), in linksOf order.
	ospfLinks  map[string][]*Link
	ripLinks   map[string][]*Link
	eigrpLinks map[string][]*Link
	// ripSpeakers / eigrpSpeakers list the routers running each
	// distance-vector protocol, in Routers() order.
	ripSpeakers   []string
	eigrpSpeakers []string
	// sessions is the discovered BGP session graph.
	sessions []bgpSession
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
	// speakers lists the OSPF routers in Routers() order.
	speakers []string
	// t interns the speakers; fwd/dist index nodes by its IDs.
	t *interner
	// fwd is the directed cost graph over OSPF adjacencies in CSR form.
	fwd *csrGraph
	// dist is the all-pairs SPF view with on-demand destination rows.
	dist *DistMatrix
	// prefixes is every prefix advertised into OSPF, sorted; pidx is the
	// inverse (prefix → row index of the OSPF route rows).
	prefixes []netip.Prefix
	pidx     map[netip.Prefix]int32
	// advs[p] lists the stub-prefix advertisements for p.
	advs map[netip.Prefix][]adv
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
		ospfLinks:  make(map[string][]*Link),
		ripLinks:   make(map[string][]*Link),
		eigrpLinks: make(map[string][]*Link),
	}
	for _, r := range n.Cfg.Routers() {
		d := n.Cfg.Device(r)
		if d.RIP != nil {
			c.ripSpeakers = append(c.ripSpeakers, r)
		}
		if d.EIGRP != nil {
			c.eigrpSpeakers = append(c.eigrpSpeakers, r)
		}
		for _, l := range n.linksOf[r] {
			if n.ospfLinkEnabled(l) {
				c.ospfLinks[r] = append(c.ospfLinks[r], l)
			}
			if n.ripLinkEnabled(l) {
				c.ripLinks[r] = append(c.ripLinks[r], l)
			}
			if n.eigrpLinkEnabled(l) {
				c.eigrpLinks[r] = append(c.eigrpLinks[r], l)
			}
		}
	}
	c.sessions = n.discoverSessions()
	c.ospf = n.buildOSPFCore()
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
// per-prefix advertisements. No distances are computed here — rows
// materialize lazily as the route computation touches them.
func (n *Net) buildOSPFCore() *ospfCore {
	c := &ospfCore{advs: make(map[netip.Prefix][]adv)}
	for _, r := range n.Cfg.Routers() {
		if n.Cfg.Device(r).OSPF != nil {
			c.speakers = append(c.speakers, r)
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
	// at the advertising interface's cost.
	for _, r := range c.speakers {
		d := n.Cfg.Device(r)
		ri, _ := c.t.id(r)
		for _, i := range d.Interfaces {
			if ospfEnabled(d, i) {
				p := i.Addr.Masked()
				c.advs[p] = append(c.advs[p], adv{router: ri, cost: clampCost32(i.Cost())})
			}
		}
	}
	c.prefixes = sortedPrefixes(c.advs)
	c.pidx = make(map[netip.Prefix]int32, len(c.prefixes))
	for pi, p := range c.prefixes {
		c.pidx[p] = int32(pi)
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
