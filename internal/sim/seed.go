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
//     same connected and static candidates; and no deny decision for it
//     changed between prev's filter view and the new one (the diff
//     DiffNetworks computes).
//
// The router ID counts per prefix because bgpBetter breaks ties on the
// originator's ID, and routerID falls back to the highest interface
// address: a new interface can raise a speaker's ID and so flip the best
// route toward every prefix that speaker originates, and only those.
//
// The new Net's device and interface tables extend prev's: prev's names
// keep their indices and the new ones are appended in name order, so the
// next hops inside carried columns and OSPF rows stay valid as they are.
// A carried column is shared with prev when both device tables hold the
// same devices, and otherwise extended with no route for each appended
// device: any route such a device could have would have changed that
// prefix's origins or candidates. A configuration that lacks one of
// prev's devices cannot extend its table: the Net is built as Build
// builds it, in name order, and every prefix is marked.
func BuildFrom(cfg *config.Network, prev *Snapshot) (*Net, *FilterDiff, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	all := &FilterDiff{all: true}
	if prev == nil || slices.ContainsFunc(prev.tab.devices, func(d string) bool { return cfg.Device(d) == nil }) {
		return n, all, nil
	}
	n.seedTab = prev.tab
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
	last := &simResult{ospfRows: make([][]*Route, len(t.prefixes)), cols: make([][]*Route, len(t.prefixes))}
	dirty := &FilterDiff{}
	for pi, p := range t.prefixes {
		pj, ok := pt.idx[p]
		if !ok || filters.Marks(p) || !slices.Equal(t.origins[pi], pt.origins[pj]) || !sameFixed(t.fixed[pi], pt.fixed[pj]) ||
			t.dest[pi] && !pt.dest[pj] {
			dirty.mark(p.Masked())
			continue
		}
		if t.dest[pi] {
			col := prev.cols[pj]
			if len(col) != len(t.devices) {
				ext := make([]*Route, len(t.devices))
				copy(ext, col)
				col = ext
			}
			last.cols[pi] = col
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
	for p := range a.links {
		if !slices.Equal(a.speakers[p], b.speakers[p]) || !maps.EqualFunc(a.links[p], b.links[p], slices.Equal[[]adjacency]) {
			return false
		}
	}
	return slices.Equal(a.bgpSpeakers, b.bgpSpeakers) &&
		maps.Equal(a.asn, b.asn) &&
		slices.EqualFunc(a.sessions, b.sessions, func(x, y bgpSession) bool {
			return x.owner == y.owner && x.peer == y.peer && x.peerAddr == y.peerAddr && x.ebgp == y.ebgp && x.iface == y.iface
		})
}

// sameFixed reports whether two prefixes' connected and static
// candidates, one from a table and one from the table it extends, agree
// device by device. Over an extension, equal indices are equal names.
func sameFixed(a, b []devRoute) bool {
	return slices.EqualFunc(a, b, func(x, y devRoute) bool {
		return x.dev == y.dev && x.rt.Prefix == y.rt.Prefix &&
			x.rt.Source == y.rt.Source && x.rt.Metric == y.rt.Metric && slices.Equal(x.rt.NextHops, y.rt.NextHops)
	})
}
