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

// ospfState is the computed link-state view shared by column assembly and
// BGP next-hop resolution.
type ospfState struct {
	// dist is the all-pairs SPF view (on-demand destination rows).
	dist *DistMatrix
	// t interns the speakers; fwd indexes nodes by its IDs.
	t *interner
	// fwd is the directed cost graph over OSPF adjacencies.
	fwd *csrGraph
	// tab is the Net's prefix table; dev maps speakers to its devices.
	tab *prefixTable
	dev []int32
	// rows[pi][si] is speaker si's OSPF route to table prefix pi, nil
	// when it has none; rows[pi] is nil for prefixes not advertised into
	// OSPF. Clean rows are the previous simulation's, shared.
	rows [][]*Route
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
	pi, okp := st.tab.idx[p]
	si, okr := st.speaker(r)
	if !okp || !okr || st.rows[pi] == nil {
		return nil
	}
	return st.rows[pi][si]
}

// ospfScratch is the per-prefix working memory of runOSPF's candidate
// selection, pooled so that each in-flight prefix shard reuses one set
// instead of allocating (and growing) its own: the dense distance row,
// the next-hop staging area, the per-speaker route slots, and the marks
// of the exact lists that deny the prefix, by list id (all false between
// prefixes).
type ospfScratch struct {
	dist   []int32
	nhs    []NextHop
	slot   []int32
	spans  []nhSpan
	denied []bool
}

// markDenied sets the marks of the lists ids names, growing the mark
// slice to nlists; unmarkDenied clears them again.
func (sc *ospfScratch) markDenied(nlists int, ids []int32) []bool {
	if len(sc.denied) < nlists {
		sc.denied = make([]bool, nlists)
	}
	for _, id := range ids {
		sc.denied[id] = true
	}
	return sc.denied
}

func (sc *ospfScratch) unmarkDenied(ids []int32) {
	for _, id := range ids {
		sc.denied[id] = false
	}
}

// nhSpan is one route's next hops within the staging area.
type nhSpan struct{ start, end int32 }

var ospfScratchPool = sync.Pool{New: func() any { return new(ospfScratch) }}

// getOSPFScratch returns scratch sized for n speakers, with every
// distance unknown (-1) and the staging areas empty.
func getOSPFScratch(n int) *ospfScratch {
	sc := ospfScratchPool.Get().(*ospfScratch)
	if cap(sc.dist) < n {
		sc.dist = make([]int32, n)
		sc.slot = make([]int32, n)
	}
	sc.dist, sc.slot = sc.dist[:n], sc.slot[:n]
	for i := range sc.dist {
		sc.dist[i] = -1
	}
	sc.nhs, sc.spans = sc.nhs[:0], sc.spans[:0]
	return sc
}

// linkCand is one OSPF adjacency of a speaker, resolved once per run:
// the interned neighbor, the next hop over it, the local interface's
// cost, and the compiled inbound distribute-list on that interface (nil
// when none).
type linkCand struct {
	nb   int32
	nh   NextHop
	cost int32
	in   *listEval
}

// runOSPF computes the OSPF route rows: one per advertised prefix, one
// slot per speaker. The link-state view (interned cost graph, SPF
// distance rows) comes from the Net's cached core and the inbound filters
// from the filter view filters; only the rows of the prefixes dirty marks
// are computed, the others are last's (nil when last is). It reads
// nothing else of the Net, so a Snapshot computes its on-read rows with
// it long after the Net's configurations have moved on.
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
func (n *Net) runOSPF(workers int, filters *filterState, last *simResult, dirty []bool) *ospfState {
	core := n.coreFor(workers)
	oc := core.ospf
	st := &ospfState{dist: oc.dist, t: oc.t, fwd: oc.fwd, tab: core.tab, dev: oc.dev, rows: make([][]*Route, len(core.tab.prefixes))}
	var todo []int32
	for _, pi := range oc.prefixes {
		switch {
		case dirty[pi]:
			todo = append(todo, pi)
		case last != nil:
			st.rows[pi] = last.ospfRows[pi]
		}
	}
	if len(todo) == 0 {
		return st
	}

	// Per-speaker state, resolved once per run instead of once per
	// (prefix, link): the candidate links with interned neighbor ids,
	// local costs and inbound filters, in core.ospfLinks order (the order
	// the candidate scan has always branched in).
	S := len(oc.speakers)
	cands := make([][]linkCand, S)
	forEachIndex(workers, S, func(si int) {
		r := oc.speakers[si]
		ins := filters.ospfIn[r]
		cs := make([]linkCand, 0, len(core.ospfLinks[r]))
		for _, a := range core.ospfLinks[r] {
			nb, _ := oc.t.id(a.nb)
			cs = append(cs, linkCand{nb: nb, nh: core.tab.nextHop(a.nb, a.iface), cost: clampCost32(a.metric), in: ins[a.iface]})
		}
		cands[si] = cs
	})

	// Destination-sharded candidate selection.
	forEachIndex(workers, len(todo), func(k int) {
		pi := todo[k]
		p := core.tab.prefixes[pi]
		sc := getOSPFScratch(oc.t.size())
		denied := filters.deniedBy[p.Masked()]
		marked := sc.markDenied(filters.nlists, denied)
		dp := sc.dist
		for _, a := range oc.advs[pi] {
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
		// Next hops are staged in the pooled scratch and copied out at
		// their exact total length, and routes are arena-allocated per
		// prefix (one backing array each instead of one allocation per
		// route), which is what keeps the GC out of the way at 10⁶
		// routes.
		arena := make([]Route, 0, S)
		attached := oc.attached[pi]
		for si := range oc.speakers {
			sc.slot[si] = -1
			if len(attached) > 0 && attached[0] == int32(si) {
				attached = attached[1:]
				continue // connected route wins; OSPF never overrides it
			}
			best := int32(-1)
			start := int32(len(sc.nhs))
			for _, lc := range cands[si] {
				dn := dp[lc.nb]
				if dn < 0 {
					continue
				}
				// A candidate costlier than the best so far loses whether
				// or not a filter denies it, so the filter is consulted
				// only for the ones that could win or tie, against the
				// marks of the lists the index says deny p.
				cand := satAdd32(lc.cost, dn)
				if (best != -1 && cand > best) || lc.in.deniesMarked(p, marked) {
					continue
				}
				switch {
				case best == -1 || cand < best:
					best = cand
					sc.nhs = append(sc.nhs[:start], lc.nh)
				case cand == best:
					sc.nhs = append(sc.nhs, lc.nh)
				}
			}
			if best >= 0 {
				seg := core.tab.sortNextHops(sc.nhs[start:])
				sc.nhs = sc.nhs[:int(start)+len(seg)]
				sc.slot[si] = int32(len(arena))
				arena = append(arena, Route{Prefix: p, Source: SrcOSPF, Metric: int(best)})
				sc.spans = append(sc.spans, nhSpan{start: start, end: int32(len(sc.nhs))})
			}
		}
		nhs := append([]NextHop(nil), sc.nhs...)
		out := make([]*Route, S)
		for si := range oc.speakers {
			if j := sc.slot[si]; j >= 0 {
				sp := sc.spans[j]
				arena[j].NextHops = nhs[sp.start:sp.end:sp.end]
				out[si] = &arena[j]
			}
		}
		sc.unmarkDenied(denied)
		ospfScratchPool.Put(sc)
		st.rows[pi] = out
	})
	return st
}

// nextHopsToRouter returns the OSPF first hops from router r toward router
// dst (used for BGP recursive next-hop resolution). Filters do not apply:
// resolution targets router-level reachability, not host prefixes. The
// scan walks dst's dense distance row plus r's CSR arcs — no map lookups.
func (st *ospfState) nextHopsToRouter(r, dst string) []NextHop {
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
			nhs = append(nhs, a.nh)
		}
	}
	return st.tab.sortNextHops(nhs)
}
