package sim

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"confmask/internal/config"
)

// bgpSession is one configured BGP adjacency, directed receiver-side: the
// owner router has a `neighbor` statement pointing at peerAddr on peer.
type bgpSession struct {
	owner    string
	peer     string
	peerAddr netip.Addr
	ebgp     bool
	iface    string // owner's interface on the direct link of an eBGP session ("" for iBGP)
	nb       *config.BGPNeighbor
}

// bgpRoute is a BGP RIB entry during iteration.
type bgpRoute struct {
	prefix   netip.Prefix
	asPath   []int
	peer     string // router the route was learned from; "" when local
	fromIBGP bool
	peerID   netip.Addr
}

func (r bgpRoute) key() string {
	parts := make([]string, 0, len(r.asPath)+3)
	parts = append(parts, r.prefix.String(), r.peer, fmt.Sprint(r.fromIBGP))
	for _, a := range r.asPath {
		parts = append(parts, fmt.Sprint(a))
	}
	return strings.Join(parts, "|")
}

// bgpState carries the converged BGP view.
type bgpState struct {
	sessions []bgpSession
	best     map[string]map[netip.Prefix]bgpRoute // router → prefix → best
}

// discoverSessions finds every configured neighbor whose address resolves
// to an interface of a BGP speaker with the matching AS number.
func (n *Net) discoverSessions() []bgpSession {
	var out []bgpSession
	for _, r := range n.Cfg.Routers() {
		d := n.Cfg.Device(r)
		if d.BGP == nil {
			continue
		}
		for _, nb := range d.BGP.Neighbors {
			peer, iface := n.deviceByAddr(nb.Addr)
			if peer == "" || peer == r {
				continue
			}
			pd := n.Cfg.Device(peer)
			if pd.BGP == nil || pd.BGP.ASN != nb.RemoteAS {
				continue
			}
			s := bgpSession{
				owner:    r,
				peer:     peer,
				peerAddr: nb.Addr,
				ebgp:     pd.BGP.ASN != d.BGP.ASN,
				nb:       nb,
			}
			if s.ebgp {
				// eBGP requires the session to ride a direct link so the
				// peer is a valid next hop.
				for _, l := range n.linksOf[r] {
					if o, _ := l.Other(r); o.Device == peer && o.Iface == iface {
						local, _ := l.Local(r)
						s.iface = local.Iface
						break
					}
				}
				if s.iface == "" {
					continue
				}
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].owner != out[j].owner {
			return out[i].owner < out[j].owner
		}
		return out[i].peerAddr.Compare(out[j].peerAddr) < 0
	})
	return out
}

// deviceByAddr finds the device and interface owning an address.
func (n *Net) deviceByAddr(a netip.Addr) (string, string) {
	for _, name := range n.Cfg.Names() {
		d := n.Cfg.Device(name)
		if i := d.InterfaceByAddr(a); i != nil {
			return name, i.Name
		}
	}
	return "", ""
}

// routerID returns the effective BGP router ID of a device.
func routerID(d *config.Device) netip.Addr {
	if d.BGP != nil && d.BGP.RouterID.IsValid() {
		return d.BGP.RouterID
	}
	var best netip.Addr
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() && (!best.IsValid() || i.Addr.Addr().Compare(best) > 0) {
			best = i.Addr.Addr()
		}
	}
	return best
}

// runBGP iterates the BGP propagation and decision process to a fixed
// point. The decision order is shortest AS path, then eBGP over iBGP, then
// lowest IGP metric to the egress router, then lowest peer router ID — the
// standard process restricted to the attributes our configs express.
func (n *Net) runBGP(igp *ospfState, workers int) *bgpState {
	core := n.coreFor(workers)
	st := &bgpState{sessions: core.sessions, best: make(map[string]map[netip.Prefix]bgpRoute)}
	speakers, asOf := core.bgpSpeakers, core.asn
	if len(speakers) == 0 {
		return st
	}

	// Local originations: a network statement is originated when the
	// router can actually reach the prefix (connected or via its IGP),
	// mirroring IOS's RIB-presence requirement.
	origin := make(map[string][]bgpRoute)
	for _, r := range speakers {
		d := n.Cfg.Device(r)
		for _, p := range d.BGP.Networks {
			if !n.routerReaches(igp, r, p) {
				continue
			}
			origin[r] = append(origin[r], bgpRoute{prefix: p, peer: "", peerID: routerID(d)})
		}
	}

	// sessionsTo[q] lists sessions on which q receives advertisements.
	sessionsTo := make(map[string][]bgpSession)
	for _, s := range st.sessions {
		sessionsTo[s.owner] = append(sessionsTo[s.owner], s)
	}

	adjIn := make(map[string]map[string]map[netip.Prefix]bgpRoute, len(speakers))
	for _, r := range speakers {
		adjIn[r] = make(map[string]map[netip.Prefix]bgpRoute)
	}

	computeBest := func(r string) map[netip.Prefix]bgpRoute {
		cands := make(map[netip.Prefix][]bgpRoute)
		for _, o := range origin[r] {
			cands[o.prefix] = append(cands[o.prefix], o)
		}
		for _, routes := range adjIn[r] {
			for p, rt := range routes {
				cands[p] = append(cands[p], rt)
			}
		}
		best := make(map[netip.Prefix]bgpRoute, len(cands))
		for p, cs := range cands {
			best[p] = n.bgpSelect(igp, r, cs)
		}
		return best
	}

	// Per-router best computation only reads origin and adj-RIB-in, so the
	// fan-out writes index-addressed slots and the merged result matches a
	// sequential run (bgpSelect's comparator is a total order).
	recompute := func() {
		bests := make([]map[netip.Prefix]bgpRoute, len(speakers))
		forEachIndex(workers, len(speakers), func(i int) {
			bests[i] = computeBest(speakers[i])
		})
		for i, r := range speakers {
			st.best[r] = bests[i]
		}
	}

	maxRounds := 4*len(speakers) + 10
	for round := 0; round < maxRounds; round++ {
		recompute()
		// Build next adj-RIB-in from current bests, synchronously.
		next := make(map[string]map[string]map[netip.Prefix]bgpRoute, len(speakers))
		for _, r := range speakers {
			next[r] = make(map[string]map[netip.Prefix]bgpRoute)
		}
		for _, s := range sessionsTo {
			for _, sess := range s {
				recv := sess.owner
				sender := sess.peer
				in := make(map[netip.Prefix]bgpRoute)
				for p, rt := range st.best[sender] {
					adv, ok := advertise(rt, asOf[sender], sess.ebgp, sender)
					if !ok {
						continue
					}
					// Receiver-side loop prevention.
					if containsAS(adv.asPath, asOf[recv]) {
						continue
					}
					// Inbound distribute-list on the receiving neighbor.
					if name := sess.nb.DistributeListIn; name != "" {
						if n.denies(n.Cfg.Device(recv), name, p) {
							continue
						}
					}
					in[p] = adv
				}
				next[recv][sender] = in
			}
		}
		if adjInEqual(adjIn, next) {
			adjIn = next
			break
		}
		adjIn = next
	}
	recompute()
	return st
}

// advertise transforms a best route for transmission over a session; ok is
// false when the route must not be sent (iBGP re-advertisement rule).
func advertise(rt bgpRoute, senderAS int, ebgp bool, sender string) (bgpRoute, bool) {
	if ebgp {
		out := rt
		out.asPath = append([]int{senderAS}, rt.asPath...)
		out.peer = sender
		out.fromIBGP = false
		return out, true
	}
	// iBGP: only locally originated or eBGP-learned routes propagate, and
	// next-hop-self makes the sender the egress for the receiver.
	if rt.fromIBGP {
		return bgpRoute{}, false
	}
	out := rt
	out.asPath = append([]int(nil), rt.asPath...)
	out.peer = sender
	out.fromIBGP = true
	return out, true
}

// bgpSelect applies the decision process to candidate routes.
func (n *Net) bgpSelect(igp *ospfState, r string, cs []bgpRoute) bgpRoute {
	best := cs[0]
	for _, c := range cs[1:] {
		if bgpBetter(n, igp, r, c, best) {
			best = c
		}
	}
	return best
}

func bgpBetter(n *Net, igp *ospfState, r string, a, b bgpRoute) bool {
	if len(a.asPath) != len(b.asPath) {
		return len(a.asPath) < len(b.asPath)
	}
	if a.fromIBGP != b.fromIBGP {
		return !a.fromIBGP
	}
	da := igpMetricTo(igp, r, a)
	db := igpMetricTo(igp, r, b)
	if da != db {
		return da < db
	}
	if c := a.peerID.Compare(b.peerID); c != 0 {
		return c < 0
	}
	return a.peer < b.peer
}

func igpMetricTo(igp *ospfState, r string, rt bgpRoute) int {
	if !rt.fromIBGP || rt.peer == "" || rt.peer == r {
		return 0
	}
	if d, ok := igp.dist.Dist(r, rt.peer); ok {
		return d
	}
	return 1 << 30
}

// routerReaches reports whether router r has a connected, static, or IGP
// route to p (the RIB-presence requirement of a BGP network statement).
func (n *Net) routerReaches(igp *ospfState, r string, p netip.Prefix) bool {
	d := n.Cfg.Device(r)
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() && i.Addr.Masked() == p {
			return true
		}
	}
	for _, s := range d.Statics {
		if s.Prefix == p {
			return true
		}
	}
	return igp.route(r, p) != nil
}

func containsAS(path []int, as int) bool {
	for _, a := range path {
		if a == as {
			return true
		}
	}
	return false
}

func adjInEqual(a, b map[string]map[string]map[netip.Prefix]bgpRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for r, pa := range a {
		pb, ok := b[r]
		if !ok || len(pa) != len(pb) {
			return false
		}
		for peer, ra := range pa {
			rb, ok := pb[peer]
			if !ok || len(ra) != len(rb) {
				return false
			}
			for p, x := range ra {
				y, ok := rb[p]
				if !ok || x.key() != y.key() {
					return false
				}
			}
		}
	}
	return true
}

// offerRoutes converts router r's converged BGP bests into FIB routes for
// the prefixes whose columns b builds, offering each at r's device index
// di. The iBGP next hops are filtered by r's OSPF inbound lists in the
// filter view filters.
func (st *bgpState) offerRoutes(igp *ospfState, filters *filterState, r string, di int32, b *colBuild) {
	best := st.best[r]
	if len(best) == 0 {
		return
	}
	ins := filters.ospfIn[r]
	for p, rt := range best {
		if rt.peer == "" {
			// Locally originated: connected/IGP covers forwarding.
			continue
		}
		pi := b.tab.index(p)
		if !b.dirty[pi] {
			continue // not built by this assembly
		}
		if !rt.fromIBGP {
			// eBGP: forward directly to the session peer.
			iface := ""
			for _, s := range st.sessions {
				if s.owner == r && s.peer == rt.peer && s.ebgp {
					iface = s.iface
					break
				}
			}
			if iface == "" {
				continue
			}
			b.put(pi, di, &Route{
				Prefix:   p,
				Source:   SrcEBGP,
				Metric:   len(rt.asPath),
				NextHops: []NextHop{{Device: rt.peer, Iface: iface}},
			})
			continue
		}
		// iBGP: resolve recursively through the IGP toward the egress.
		// Interface distribute-lists apply to the resolved next hops at
		// installation time: when the IGP offers equal-cost paths over a
		// fake link, ConfMask's per-interface filter for this destination
		// rejects that branch (the SFE "rejected" clause) while the real
		// branches stay installed.
		var nhs []NextHop
		for _, nh := range igp.nextHopsToRouter(r, rt.peer) {
			if ins[nh.Iface].denies(p) {
				continue
			}
			nhs = append(nhs, nh)
		}
		if len(nhs) == 0 {
			continue
		}
		b.put(pi, di, &Route{Prefix: p, Source: SrcIBGP, Metric: len(rt.asPath), NextHops: nhs})
	}
}
