package sim

import (
	"net/netip"
	"sync"

	"confmask/internal/config"
)

// ospfEnabled reports whether an interface participates in the device's
// OSPF process: a network statement must cover the interface address
// (Cisco network+wildcard matching).
func ospfEnabled(d *config.Device, i *config.Interface) bool {
	if d.OSPF == nil || !i.Addr.IsValid() {
		return false
	}
	for _, nw := range d.OSPF.Networks {
		if nw.Contains(i.Addr.Addr()) {
			return true
		}
	}
	return false
}

// ospfLinkEnabled reports whether a router-router link runs OSPF: both
// endpoint interfaces must be enabled.
func (n *Net) ospfLinkEnabled(l *Link) bool {
	da := n.Cfg.Device(l.A.Device)
	db := n.Cfg.Device(l.B.Device)
	if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
		return false
	}
	ia := da.Interface(l.A.Iface)
	ib := db.Interface(l.B.Iface)
	return ia != nil && ib != nil && ospfEnabled(da, ia) && ospfEnabled(db, ib)
}

// ospfState is the computed link-state view shared by FIB construction and
// BGP next-hop resolution.
type ospfState struct {
	// dist is the all-pairs SPF view (on-demand destination rows).
	dist *DistMatrix
	// t interns the speakers; fwd indexes nodes by its IDs.
	t *interner
	// fwd is the directed cost graph over OSPF adjacencies.
	fwd *csrGraph
	// pidx maps an advertised prefix to its row index (the core's).
	pidx map[netip.Prefix]int32
	// rows[pi][si] is speaker si's OSPF route to prefix pi, nil when it
	// has none. Clean rows are the previous simulation's, shared.
	rows [][]*Route
	// dirty lists the row indices this run recomputed, ascending.
	dirty []int32
}

// speaker returns r's interned speaker index; ok is false when r does
// not run OSPF.
func (st *ospfState) speaker(r string) (int32, bool) {
	if st.t == nil {
		return 0, false
	}
	return st.t.id(r)
}

// route returns router r's OSPF route to p, or nil.
func (st *ospfState) route(r string, p netip.Prefix) *Route {
	pi, okp := st.pidx[p]
	si, okr := st.speaker(r)
	if !okp || !okr {
		return nil
	}
	return st.rows[pi][si]
}

// ospfRowPool recycles the per-prefix distance rows runOSPF streams: one
// live row per in-flight prefix shard, instead of a materialized
// prefixes × routers matrix.
var ospfRowPool = sync.Pool{New: func() any { return new([]int32) }}

func getOSPFRow(n int) []int32 {
	p := ospfRowPool.Get().(*[]int32)
	r := *p
	if cap(r) < n {
		r = make([]int32, n)
	}
	r = r[:n]
	for i := range r {
		r[i] = -1
	}
	return r
}

func putOSPFRow(r []int32) { ospfRowPool.Put(&r) }

// runOSPF computes the OSPF route rows: one per advertised prefix, one
// slot per speaker. The link-state view (interned cost graph, SPF
// distance rows) comes from the Net's cached core; only the rows of the
// prefixes stale marks are recomputed, the others are last's (last nil:
// every row is recomputed).
//
// The computation is destination-sharded: for each recomputed prefix, a
// pooled dense []int32 row of per-router distances to the prefix is
// streamed from the DistMatrix (min over the prefix's advertisers of the
// distance-to-advertiser row plus the advertising cost), and every
// speaker's candidate selection reads that row by interned neighbor id.
// Each shard writes its own row slot, so the output is identical at any
// worker count.
//
// Filters (distribute-list in on an interface) remove the corresponding
// next-hop candidates at RIB-installation time on the filtering router
// only; the link-state database itself is unaffected, matching IOS
// semantics and the "edge is rejected" clause of the paper's SFE
// conditions for link-state protocols.
func (n *Net) runOSPF(workers int, last *simResult, stale *FilterDiff) *ospfState {
	core := n.coreFor(workers)
	oc := core.ospf
	st := &ospfState{dist: oc.dist, t: oc.t, fwd: oc.fwd, pidx: oc.pidx, rows: make([][]*Route, len(oc.prefixes))}
	for pi, p := range oc.prefixes {
		if last != nil && !stale.marks(p) {
			st.rows[pi] = last.ospfRows[pi]
			continue
		}
		st.dirty = append(st.dirty, int32(pi))
	}
	if len(st.dirty) == 0 {
		return st
	}

	// Filter-independent per-speaker state, resolved once per run instead
	// of once per (prefix, link): the device, its connected prefixes, and
	// its candidate links with interned neighbor ids and local costs, in
	// core.ospfLinks order (the order the candidate scan has always
	// branched in).
	type linkCand struct {
		nb     int32 // neighbor speaker id
		nbName string
		iface  string // local interface name
		cost   int32  // local interface cost
	}
	S := len(oc.speakers)
	devs := make([]*config.Device, S)
	connected := make([]map[netip.Prefix]bool, S)
	cands := make([][]linkCand, S)
	forEachIndex(workers, S, func(si int) {
		r := oc.speakers[si]
		d := n.Cfg.Device(r)
		devs[si] = d
		conn := make(map[netip.Prefix]bool)
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				conn[i.Addr.Masked()] = true
			}
		}
		connected[si] = conn
		cs := make([]linkCand, 0, len(core.ospfLinks[r]))
		for _, l := range core.ospfLinks[r] {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			nb, _ := oc.t.id(other.Device)
			li := d.Interface(local.Iface)
			cs = append(cs, linkCand{nb: nb, nbName: other.Device, iface: local.Iface, cost: clampCost32(li.Cost())})
		}
		cands[si] = cs
	})

	// Destination-sharded candidate selection.
	forEachIndex(workers, len(st.dirty), func(k int) {
		pi := st.dirty[k]
		p := oc.prefixes[pi]
		dp := getOSPFRow(oc.t.size())
		for _, a := range oc.advs[p] {
			arow := oc.dist.rowTo(a.router)
			for s, das := range arow {
				if das < 0 {
					continue
				}
				if t := satAdd32(das, a.cost); dp[s] < 0 || t < dp[s] {
					dp[s] = t
				}
			}
		}
		// Routes and next-hop lists are arena-allocated per prefix (one
		// backing array each instead of one allocation per route), which
		// is what keeps the GC out of the way at 10⁶ routes. Slices into
		// the arenas are taken only after both are fully grown.
		out := make([]*Route, S)
		arena := make([]Route, 0, S)
		var nhArena []NextHop
		slot := make([]int32, S)
		type span struct{ start, end int32 }
		spans := make([]span, 0, S)
		for si := range oc.speakers {
			slot[si] = -1
			if connected[si][p] {
				continue // connected route wins; OSPF never overrides it
			}
			d := devs[si]
			best := int32(-1)
			start := int32(len(nhArena))
			for _, lc := range cands[si] {
				dn := dp[lc.nb]
				if dn < 0 {
					continue
				}
				cand := satAdd32(lc.cost, dn)
				if n.filterDeniesOSPF(d, lc.iface, p) {
					continue
				}
				switch {
				case best == -1 || cand < best:
					best = cand
					nhArena = append(nhArena[:start], NextHop{Device: lc.nbName, Iface: lc.iface})
				case cand == best:
					nhArena = append(nhArena, NextHop{Device: lc.nbName, Iface: lc.iface})
				}
			}
			if best >= 0 {
				seg := sortNextHops(nhArena[start:])
				nhArena = nhArena[:int(start)+len(seg)]
				slot[si] = int32(len(arena))
				arena = append(arena, Route{Prefix: p, Source: SrcOSPF, Metric: int(best)})
				spans = append(spans, span{start: start, end: int32(len(nhArena))})
			}
		}
		for si := range oc.speakers {
			if j := slot[si]; j >= 0 {
				sp := spans[j]
				arena[j].NextHops = nhArena[sp.start:sp.end:sp.end]
				out[si] = &arena[j]
			}
		}
		putOSPFRow(dp)
		st.rows[pi] = out
	})
	return st
}

// filterDeniesOSPF reports whether the device's OSPF inbound
// distribute-list on iface denies prefix p.
func (n *Net) filterDeniesOSPF(d *config.Device, iface string, p netip.Prefix) bool {
	if d.OSPF == nil {
		return false
	}
	name, ok := d.OSPF.InFilters[iface]
	if !ok {
		return false
	}
	return n.denies(d, name, p)
}

// nextHopsToRouter returns the OSPF first hops from router r toward router
// dst (used for BGP recursive next-hop resolution). Filters do not apply:
// resolution targets router-level reachability, not host prefixes. The
// scan walks dst's dense distance row plus r's CSR arcs — no map lookups.
func (st *ospfState) nextHopsToRouter(n *Net, r, dst string) []NextHop {
	if r == dst || st.t == nil {
		return nil
	}
	ri, okr := st.t.id(r)
	di, okd := st.t.id(dst)
	if !okr || !okd {
		return nil
	}
	row := st.dist.rowTo(di)
	target := row[ri]
	if target < 0 {
		return nil
	}
	var nhs []NextHop
	for _, a := range st.fwd.outArcs(ri) {
		dn := row[a.to]
		if dn < 0 {
			continue
		}
		if satAdd32(a.cost, dn) == target {
			local, _ := a.link.Local(r)
			nhs = append(nhs, NextHop{Device: st.t.names[a.to], Iface: local.Iface})
		}
	}
	return sortNextHops(nhs)
}
