package sim

import (
	"maps"
	"slices"

	"confmask/internal/config"
)

// BuildFrom is Build seeded with a previous simulation. It derives cfg's
// view exactly as Build does, then installs prev's destination columns,
// their OSPF rows and the SPF DistMatrix as the new Net's last simulation
// for every destination whose inputs are unchanged, and returns the
// prefixes whose inputs changed. The Net's first SimulateNet is then an
// ordinary delta over those prefixes, and a destination the returned diff
// does not affect is routed exactly as in prev. A nil prev is Build, with
// an All() diff.
//
// Only columns prev computed as destinations are carried; its on-read
// columns are its own. A destination of the new table that was not one
// of prev's has no column to carry, so the diff marks it although its
// inputs are unchanged. Non-destination columns are never carried: the
// new Net's Snapshots compute them on read.
//
// prev must come from SimulateNet. Its Net's configurations may have
// changed in any way since, in place included (the pipeline adds twin
// hosts to the very network it simulated): the comparison reads only
// what prev's Net captured when it was built and simulated.
//
// What must match for a column to carry over:
//   - The whole network: the same OSPF, RIP, EIGRP and BGP speakers, the
//     same adjacencies with the same metrics, and the same BGP sessions
//     and AS numbers. Any difference marks every prefix, as a fresh Build
//     does. When this holds the SPF DistMatrix is shared as well, since
//     it depends on nothing else.
//   - Per prefix: the prefix is in both tables; it has the same origins
//     (the interfaces in it with their protocols and metrics, and the BGP
//     network statements for it with their speakers' router IDs); the
//     same connected and static candidates, compared by device name; and
//     no deny decision for it changed between prev's filter view and the
//     new one (the diff DiffNetworks computes).
//
// The router ID counts per prefix because bgpBetter breaks ties on the
// originator's ID, and routerID falls back to the highest interface
// address: a new interface can raise a speaker's ID and so flip the best
// route toward every prefix that speaker originates, and only those.
//
// Carried columns are shared with prev when both device tables are equal
// and otherwise re-indexed into the new table by device name. A device
// new to the table gets no route toward a carried prefix: any route it
// could have would have changed that prefix's origins or candidates.
func BuildFrom(cfg *config.Network, prev *Snapshot) (*Net, *FilterDiff, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	all := &FilterDiff{all: true}
	if prev == nil {
		return n, all, nil
	}
	c, pc := n.coreFor(1), prev.Net.coreFor(1)
	if !sameAdjacencies(c, pc) {
		return n, all, nil
	}
	c.ospf.dist = pc.ospf.dist
	filters := diffFilterStates(prev.filters, n.filterState)
	if filters.All() {
		return n, all, nil
	}
	t, pt := c.tab, pc.tab
	carry := columnCarrier(pt, t)
	last := &simResult{ospfRows: make([][]*Route, len(t.prefixes)), cols: make([][]*Route, len(t.prefixes))}
	dirty := &FilterDiff{}
	for pi, p := range t.prefixes {
		pj, ok := pt.idx[p]
		if !ok || filters.Marks(p) || !slices.Equal(t.origins[pi], pt.origins[pj]) || !sameFixed(t, pt, t.fixed[pi], pt.fixed[pj]) ||
			t.dest[pi] && !pt.dest[pj] {
			dirty.mark(p.Masked())
			continue
		}
		if t.dest[pi] {
			last.cols[pi] = carry(prev.cols[pj])
			last.ospfRows[pi] = prev.ospfRows[pj]
		}
	}
	n.last, n.stale = last, dirty
	return n, dirty, nil
}

// sameAdjacencies reports whether two cores hold the same whole-network
// routing inputs: speakers, adjacencies and their metrics, BGP sessions
// and AS numbers.
func sameAdjacencies(a, b *simCore) bool {
	return slices.Equal(a.ospf.speakers, b.ospf.speakers) &&
		slices.Equal(a.ripSpeakers, b.ripSpeakers) &&
		slices.Equal(a.eigrpSpeakers, b.eigrpSpeakers) &&
		slices.Equal(a.bgpSpeakers, b.bgpSpeakers) &&
		maps.Equal(a.asn, b.asn) &&
		maps.EqualFunc(a.ospfLinks, b.ospfLinks, slices.Equal[[]adjacency]) &&
		maps.EqualFunc(a.ripLinks, b.ripLinks, slices.Equal[[]adjacency]) &&
		maps.EqualFunc(a.eigrpLinks, b.eigrpLinks, slices.Equal[[]adjacency]) &&
		slices.EqualFunc(a.sessions, b.sessions, func(x, y bgpSession) bool {
			return x.owner == y.owner && x.peer == y.peer && x.peerAddr == y.peerAddr && x.ebgp == y.ebgp && x.iface == y.iface
		})
}

// sameFixed reports whether two prefixes' connected and static
// candidates, a from table t and b from table pt, agree device by device.
func sameFixed(t, pt *prefixTable, a, b []devRoute) bool {
	return slices.EqualFunc(a, b, func(x, y devRoute) bool {
		return t.devices[x.dev] == pt.devices[y.dev] && x.rt.Prefix == y.rt.Prefix &&
			x.rt.Source == y.rt.Source && x.rt.Metric == y.rt.Metric && slices.Equal(x.rt.NextHops, y.rt.NextHops)
	})
}

// columnCarrier returns how a column of table from moves into table to:
// as it is when both device tables are equal, else copied into to's
// device order by name.
func columnCarrier(from, to *prefixTable) func([]*Route) []*Route {
	if slices.Equal(from.devices, to.devices) {
		return func(col []*Route) []*Route { return col }
	}
	pos := make([]int32, len(to.devices))
	for di, name := range to.devices {
		pos[di] = -1
		if pj, ok := from.devIdx[name]; ok {
			pos[di] = pj
		}
	}
	return func(col []*Route) []*Route {
		out := make([]*Route, len(pos))
		for di, pj := range pos {
			if pj >= 0 {
				out[di] = col[pj]
			}
		}
		return out
	}
}
