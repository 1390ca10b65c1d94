// Package sim is a from-scratch control-plane simulator for Cisco-IOS-style
// configurations — the substitute for Batfish in the ConfMask pipeline.
//
// It recovers the layer-3 topology from interface prefixes, computes
// per-router routing tables for OSPF (link-state SPF with ECMP), RIP
// (distance-vector), and BGP (decision process over eBGP/iBGP sessions with
// next-hop resolution through the intra-AS IGP), honors distribute-list
// route filters, and extracts the data plane: every host-to-host forwarding
// path, with equal-cost multipath fan-out, loop detection, and black-hole
// detection.
//
// The paper's algorithms only need four Batfish queries — topology, FIB
// entries, traceroute, and reachability — and this package answers exactly
// those for the protocol subset ConfMask supports.
package sim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"confmask/internal/config"
	"confmask/internal/topology"
)

// End is one side of a link: a device, the interface used, and its address.
type End struct {
	Device string
	Iface  string
	Addr   netip.Addr
}

// Link is a point-to-point layer-3 adjacency recovered from two interfaces
// configured in the same subnet.
type Link struct {
	Prefix netip.Prefix // the shared subnet, masked
	A, B   End
}

// Other returns the far end of the link as seen from dev; ok is false when
// dev is not an endpoint.
func (l *Link) Other(dev string) (End, bool) {
	switch dev {
	case l.A.Device:
		return l.B, true
	case l.B.Device:
		return l.A, true
	default:
		return End{}, false
	}
}

// Local returns the near end of the link as seen from dev.
func (l *Link) Local(dev string) (End, bool) {
	switch dev {
	case l.A.Device:
		return l.A, true
	case l.B.Device:
		return l.B, true
	default:
		return End{}, false
	}
}

// Net is the simulation view of a configuration set: devices plus the links
// recovered from matching interface prefixes.
type Net struct {
	Cfg   *config.Network
	Links []*Link

	linksOf map[string][]*Link
	// HostPrefix maps a host name to its LAN prefix; HostOfPrefix is the
	// inverse. GatewayOf maps a host to its attached router.
	HostPrefix   map[string]netip.Prefix
	HostOfPrefix map[netip.Prefix]string
	GatewayOf    map[string]string

	// denyCache precomputes per-(device, prefix-list) deny decisions at
	// Build time; the route computation consults filters once per
	// candidate next hop, so linear rule scans would dominate on
	// filter-heavy networks (e.g. the strawman-1 baseline). Because it
	// is filled eagerly and never written during simulation, concurrent
	// route workers read it without locks. After mutating filters (and
	// only filters), call InvalidateFilters to re-derive it; any other
	// configuration change needs a new Net (see BuildFrom).
	denyCache map[string]*listEval
	// filterState is the last captured filter view (deny tables plus
	// attachment points); InvalidateFilters diffs against it to report
	// which destination prefixes a filter mutation can affect, and the
	// next simulation reads its filters from it.
	filterState *filterState

	// core caches the filter-independent simulation state (SPF, enabled
	// links, BGP sessions); built once on first use, kept across
	// InvalidateFilters. See simCore. seedTab is the table of the Snapshot
	// BuildFrom seeds the Net from, whose device and interface tables the
	// core's extends; the core drops it once built.
	coreOnce sync.Once
	core     *simCore
	seedTab  *prefixTable

	// last is the filter-dependent result of the most recent simulation
	// (or the columns BuildFrom carried over from its seed) and stale the
	// union of the FilterDiffs InvalidateFilters returned since (or the
	// prefixes BuildFrom could not carry over); the next SimulateNet
	// recomputes only the destinations stale marks (all of them when
	// last is nil).
	// Guarded by lastMu, so simulations of one Net may run concurrently.
	lastMu sync.Mutex
	last   *simResult
	stale  *FilterDiff
}

// simResult is what a simulation leaves for the next one on the same Net:
// the OSPF rows and the route columns of the destinations, both by
// prefix-table index (nil for every other prefix; those columns are each
// Snapshot's own, computed on read). Both are shared with the Snapshot
// that produced them, with later delta results and with the Nets
// BuildFrom seeds from that Snapshot, so neither is ever written after
// it is published.
type simResult struct {
	ospfRows [][]*Route
	cols     [][]*Route
}

// lastResult returns the remembered result and the diff accumulated
// since it. A Net never simulated returns nil and an All() diff: stale
// starts nil and only remember makes it narrower.
func (n *Net) lastResult() (*simResult, *FilterDiff) {
	n.lastMu.Lock()
	defer n.lastMu.Unlock()
	return n.last, n.stale
}

// remember publishes a finished simulation's result: nothing is stale
// relative to it until the next InvalidateFilters.
func (n *Net) remember(r *simResult) {
	n.lastMu.Lock()
	defer n.lastMu.Unlock()
	n.last, n.stale = r, &FilterDiff{}
}

// listEval is the precomputed evaluation of one (device, prefix-list)
// pair. Most lists are a run of exact-match rules optionally closed by a
// permit-any tail; those collapse to a single map lookup. Lists carrying a
// ranged deny (a deny rule with `le`) — which the simulator used to drop
// silently even though the rendered config enforces them — fall back to a
// first-match scan of the full rule set.
type listEval struct {
	// id numbers the list densely within its deny cache, for the filter
	// view's deny index (see captureFilterState).
	id int32
	// exact holds the first-match decision per rule prefix; valid only
	// when ranged is false.
	exact map[netip.Prefix]bool
	// ranged marks lists needing the ordered scan; rules is then the
	// full rule list.
	ranged bool
	rules  []config.PrefixRule
}

// denies reports whether the named prefix list on the device denies p.
// Read-only after Build/InvalidateFilters, so safe from concurrent route
// workers.
func (n *Net) denies(d *config.Device, list string, p netip.Prefix) bool {
	return n.listOf(d, list).denies(p)
}

// listOf returns the compiled form of the device's named prefix list, nil
// when the device has no such list.
func (n *Net) listOf(d *config.Device, list string) *listEval {
	return n.denyCache[d.Hostname+"\x00"+list]
}

// denies reports whether the list denies p; a nil list (unknown, or not
// attached) matches nothing and so permits.
func (ev *listEval) denies(p netip.Prefix) bool {
	if ev == nil {
		return false
	}
	q := p.Masked()
	if !ev.ranged {
		return ev.exact[q]
	}
	for _, r := range ev.rules {
		if r.Prefix == q || (r.Le >= q.Bits() && r.Prefix.Overlaps(q) && r.Prefix.Bits() <= q.Bits()) {
			return r.Deny
		}
	}
	return false
}

// deniesMarked is denies for a caller that has looked p up in its filter
// view's deny index and set marked[id] for every exact list the index
// says denies p: an exact list answers with one slice index, with no
// masking or hashing, and only a ranged list scans its rules.
func (ev *listEval) deniesMarked(p netip.Prefix, marked []bool) bool {
	switch {
	case ev == nil:
		return false
	case ev.ranged:
		return ev.denies(p)
	default:
		return marked[ev.id]
	}
}

// buildDenyCache precomputes the deny decision tables for every prefix
// list of every device.
func (n *Net) buildDenyCache() {
	cache := make(map[string]*listEval)
	for _, name := range n.Cfg.Names() {
		d := n.Cfg.Device(name)
		for _, pl := range d.PrefixLists {
			cache[name+"\x00"+pl.Name] = compileList(pl)
		}
	}
	n.denyCache = cache
}

// compileList classifies a prefix list: exact-only (possibly with a
// trailing ranged permit-any, which cannot flip any decision) gets the
// fast map; anything containing a ranged deny keeps the ordered rules.
func compileList(pl *config.PrefixList) *listEval {
	fast := true
	for i, r := range pl.Rules {
		if r.Le == 0 {
			continue
		}
		if !r.Deny && i == len(pl.Rules)-1 {
			continue // permit-any tail: unmatched prefixes permit anyway
		}
		fast = false
		break
	}
	if !fast {
		return &listEval{ranged: true, rules: append([]config.PrefixRule(nil), pl.Rules...)}
	}
	exact := make(map[netip.Prefix]bool, len(pl.Rules))
	for _, r := range pl.Rules {
		if r.Le > 0 {
			continue // the permit-any tail
		}
		if _, seen := exact[r.Prefix]; !seen {
			exact[r.Prefix] = r.Deny
		}
	}
	return &listEval{exact: exact}
}

// InvalidateFilters re-derives the filter view (the deny cache) from the
// current configurations. Call it after adding or removing distribute-list
// entries — the only mutation Algorithm 1 performs — to reuse this Net for
// another SimulateNet instead of rebuilding: link discovery, SPF, and BGP
// session discovery are filter-independent and stay cached. Mutating
// anything else (interfaces, links, neighbors, costs, protocol
// enablement) invalidates the whole view: build a new Net, seeded with
// this one's last Snapshot through BuildFrom so that the prefixes the
// mutation left alone are not simulated again.
//
// The returned FilterDiff reports which destination prefixes may see a
// different deny decision than under the previous view, so a caller can
// re-check only the destinations it affects. Ignoring the result is
// always safe: the Net also folds it into the set
// of prefixes its next SimulateNet recomputes. A filter edit without a
// following InvalidateFilters is invisible to the Net — the next
// SimulateNet carries every prefix forward from the previous one, so
// every prefix the edit touches stays stale.
//
// Not safe concurrently with a running SimulateNet on the same Net.
func (n *Net) InvalidateFilters() *FilterDiff {
	old := n.filterState
	n.buildDenyCache()
	n.filterState = n.captureFilterState()
	diff := &FilterDiff{all: true}
	if old != nil {
		diff = diffFilterStates(old, n.filterState)
	}
	n.lastMu.Lock()
	n.stale = n.stale.union(diff)
	n.lastMu.Unlock()
	return diff
}

// Build derives the simulation view from configurations. It returns an
// error for malformed inputs: a host without exactly one addressed
// interface or without an attached router.
func Build(cfg *config.Network) (*Net, error) {
	n := &Net{
		Cfg:          cfg,
		linksOf:      make(map[string][]*Link),
		HostPrefix:   make(map[string]netip.Prefix),
		HostOfPrefix: make(map[netip.Prefix]string),
		GatewayOf:    make(map[string]string),
	}

	// Group addressed interfaces by their masked subnet.
	type member struct {
		dev   string
		iface *config.Interface
	}
	groups := make(map[netip.Prefix][]member)
	for _, name := range cfg.Names() {
		d := cfg.Device(name)
		for _, i := range d.Interfaces {
			if !i.Addr.IsValid() {
				continue
			}
			p := i.Addr.Masked()
			groups[p] = append(groups[p], member{dev: name, iface: i})
		}
	}

	// Each subnet with ≥2 members yields pairwise links (a multi-access
	// segment becomes a clique, which preserves hop-by-hop reachability).
	for _, p := range sortedPrefixes(groups) {
		ms := groups[p]
		sort.Slice(ms, func(i, j int) bool { return ms[i].dev < ms[j].dev })
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				if ms[i].dev == ms[j].dev {
					continue
				}
				l := &Link{
					Prefix: p,
					A:      End{Device: ms[i].dev, Iface: ms[i].iface.Name, Addr: ms[i].iface.Addr.Addr()},
					B:      End{Device: ms[j].dev, Iface: ms[j].iface.Name, Addr: ms[j].iface.Addr.Addr()},
				}
				n.Links = append(n.Links, l)
				n.linksOf[l.A.Device] = append(n.linksOf[l.A.Device], l)
				n.linksOf[l.B.Device] = append(n.linksOf[l.B.Device], l)
			}
		}
	}

	// Host bookkeeping.
	for _, h := range cfg.Hosts() {
		d := cfg.Device(h)
		var addr *config.Interface
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				if addr != nil {
					return nil, fmt.Errorf("sim: host %s has multiple addressed interfaces", h)
				}
				addr = i
			}
		}
		if addr == nil {
			return nil, fmt.Errorf("sim: host %s has no addressed interface", h)
		}
		p := addr.Addr.Masked()
		n.HostPrefix[h] = p
		if prev, dup := n.HostOfPrefix[p]; dup {
			return nil, fmt.Errorf("sim: hosts %s and %s share prefix %v", prev, h, p)
		}
		n.HostOfPrefix[p] = h
		gw := ""
		for _, l := range n.linksOf[h] {
			other, _ := l.Other(h)
			if cfg.Device(other.Device).Kind == config.RouterKind {
				gw = other.Device
				break
			}
		}
		if gw == "" {
			return nil, fmt.Errorf("sim: host %s has no attached router", h)
		}
		n.GatewayOf[h] = gw
	}
	n.buildDenyCache()
	n.filterState = n.captureFilterState()
	return n, nil
}

// LinksOf returns the links incident to a device.
func (n *Net) LinksOf(dev string) []*Link { return n.linksOf[dev] }

// LinkBetween returns a link connecting a and b, or nil. When several
// parallel links exist the first (lowest subnet) is returned.
func (n *Net) LinkBetween(a, b string) *Link {
	for _, l := range n.linksOf[a] {
		if o, ok := l.Other(a); ok && o.Device == b {
			return l
		}
	}
	return nil
}

// Topology returns the layer-3 topology graph: every device is a node and
// every link an edge. This is exactly the graph an adversary reconstructs
// by parsing interface prefixes (§2.2 of the paper).
func (n *Net) Topology() *topology.Graph {
	g := topology.New()
	for _, name := range n.Cfg.Names() {
		k := topology.Router
		if n.Cfg.Device(name).Kind == config.HostKind {
			k = topology.Host
		}
		g.AddNode(name, k)
	}
	for _, l := range n.Links {
		_ = g.AddEdge(l.A.Device, l.B.Device)
	}
	return g
}

// ExternalDestinations returns the prefixes originated into routing via
// discard (Null0) statics — the "Internet destination" routing
// equivalence classes of the paper's §9: destinations that are not hosts
// inside the network but whose routes the anonymization must preserve.
// Sorted for determinism.
func (n *Net) ExternalDestinations() []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	for _, name := range n.Cfg.Names() {
		for _, s := range n.Cfg.Device(name).Statics {
			if s.Discard && s.Prefix.Bits() > 0 {
				seen[s.Prefix] = true
			}
		}
	}
	return sortedPrefixes(seen)
}
