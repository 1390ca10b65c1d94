package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// Simulate builds the network view from cfg and computes every device's
// FIB: connected and static routes plus OSPF, RIP, and BGP, merged by
// administrative distance. It is the ConfMask pipeline's replacement for a
// Batfish dataplane computation.
func Simulate(cfg *config.Network) (*Snapshot, error) {
	return SimulateOpts(cfg, Options{})
}

// SimulateOpts is Simulate with explicit engine options.
func SimulateOpts(cfg *config.Network, opts Options) (*Snapshot, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return SimulateNetOpts(n, opts), nil
}

// SimulateNet computes FIBs over an already-built network view with
// default options. Between calls the view's configurations must either
// stay untouched or be mutated in filters only, followed by
// InvalidateFilters; any other change needs a new Net, which BuildFrom
// seeds with this one's last Snapshot.
func SimulateNet(n *Net) *Snapshot {
	return SimulateNetOpts(n, Options{})
}

// SimulateNetOpts is SimulateNet with explicit engine options. The
// result is identical at any parallelism level: every fan-out writes
// index-addressed slots that are merged in deterministic order.
//
// The Snapshot stores its FIBs column-major: one route column per prefix
// of the Net's prefix table, indexed by device (see Snapshot). A
// simulation is a delta over the Net's previous one: only the columns of
// the prefixes marked by the FilterDiffs InvalidateFilters returned since
// then are rebuilt, with their OSPF rows recomputed and every device's
// entry re-arbitrated; every other column is the previous Snapshot's,
// shared (per-prefix filter independence, see FilterDiff). A Net's first
// simulation is a delta too when BuildFrom seeded the Net: over the
// prefixes it could not carry over from the seed. Otherwise the first
// simulation, or one after an All() diff, marks every prefix, which is
// the full computation through the same assembly. RIP, EIGRP and BGP
// converge in full either way; only their routes for marked prefixes are
// assembled.
func SimulateNetOpts(n *Net, opts Options) *Snapshot {
	workers := opts.workers()
	tab := n.coreFor(workers).tab
	filters := n.filterState
	last, stale := n.lastResult()
	b := newColBuild(tab, last, stale)
	igp := n.runOSPF(workers, last, b.dirty)
	rip := n.runRIP(workers)
	eigrp := n.runEIGRP(workers)
	bgp := n.runBGP(igp, workers)
	b.assemble(n, workers, igp, rip, eigrp, bgp)
	n.remember(&simResult{ospfRows: igp.rows, cols: b.cols})
	return &Snapshot{Net: n, OSPFDist: igp.dist, tab: tab, cols: b.cols, ospfRows: igp.rows, filters: filters, workers: workers}
}

// colBuild is one simulation's column assembly: the new column set, whose
// clean columns are the previous result's and whose dirty ones are
// rebuilt.
type colBuild struct {
	tab   *prefixTable
	dirty []bool // by table index
	cols  [][]*Route
}

// newColBuild marks the prefixes a simulation rebuilds: every one without
// a remembered result, else those stale marks. The clean columns are
// last's, shared.
func newColBuild(tab *prefixTable, last *simResult, stale *FilterDiff) *colBuild {
	b := &colBuild{tab: tab, dirty: make([]bool, len(tab.prefixes)), cols: make([][]*Route, len(tab.prefixes))}
	for pi, p := range tab.prefixes {
		if last == nil || stale.Marks(p) {
			b.dirty[pi] = true
		} else {
			b.cols[pi] = last.cols[pi]
		}
	}
	return b
}

// assemble rebuilds every dirty column. A device's entry is the
// administrative-distance winner among its connected and static
// candidates (the prefix table's), its OSPF route (the prefix's row), and
// its BGP, EIGRP and RIP routes. Columns fan out first; the per-router
// protocol results then fan out by router, each writing only its own slot
// of the dirty columns.
func (b *colBuild) assemble(n *Net, workers int, igp *ospfState, rip, eigrp map[string]map[netip.Prefix]*Route, bgp *bgpState) {
	var fresh []int32
	for pi, d := range b.dirty {
		if d {
			fresh = append(fresh, int32(pi))
		}
	}
	if len(fresh) == 0 {
		return
	}
	D := len(b.tab.devices)
	forEachIndex(workers, len(fresh), func(k int) {
		pi := fresh[k]
		col := make([]*Route, D)
		for _, f := range b.tab.fixed[pi] {
			col[f.dev] = f.rt
		}
		b.cols[pi] = col
		for si, rt := range igp.rows[pi] {
			if rt != nil {
				b.put(pi, igp.dev[si], rt)
			}
		}
	})
	forEachIndex(workers, D, func(i int) {
		di, name := int32(i), b.tab.devices[i]
		bgp.offerRoutes(n, igp, name, di, b)
		for _, rt := range eigrp[name] {
			b.offer(di, rt)
		}
		for _, rt := range rip[name] {
			b.offer(di, rt)
		}
	})
}

// offer installs rt at device di when its prefix's column is being
// rebuilt; see put.
func (b *colBuild) offer(di int32, rt *Route) {
	if pi := b.tab.index(rt.Prefix); b.dirty[pi] {
		b.put(pi, di, rt)
	}
}

// put installs rt at device di of dirty column pi unless the entry there
// has a lower administrative distance. Each protocol yields at most one
// route per device and prefix, so the winner does not depend on the order
// routes are offered in.
func (b *colBuild) put(pi, di int32, rt *Route) {
	col := b.cols[pi]
	if cur := col[di]; cur == nil || rt.Source < cur.Source {
		col[di] = rt
	}
}

// resolveDirect finds the link of dev whose far-end address equals addr.
func (n *Net) resolveDirect(dev string, addr netip.Addr) (NextHop, bool) {
	for _, l := range n.linksOf[dev] {
		other, _ := l.Other(dev)
		if other.Addr == addr {
			local, _ := l.Local(dev)
			return NextHop{Device: other.Device, Iface: local.Iface}, true
		}
	}
	return NextHop{}, false
}
