package sim

import (
	"net/netip"
	"sync/atomic"

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
// simulation computes the OSPF rows and route columns of the table's
// destinations only (host LANs and the prefixes covering them, BGP
// network statements and discard statics' prefixes: everything the
// pipeline reads); the Snapshot computes every other column on its first
// read that needs one, from the inputs this simulation captured.
//
// A simulation is a delta over the Net's previous one: only the
// destination columns of the prefixes marked by the FilterDiffs
// InvalidateFilters returned since then are rebuilt, with their OSPF
// rows recomputed and every device's entry re-arbitrated; every other
// destination column is the previous Snapshot's, shared (per-prefix
// filter independence, see FilterDiff). A Net's first simulation is a
// delta too when BuildFrom seeded the Net: over the destinations it could
// not carry over from the seed. Otherwise the first simulation, or one
// after an All() diff, marks every destination, which is the full
// computation through the same assembly. RIP, EIGRP and BGP converge in
// full either way; only their routes for marked prefixes are assembled.
func SimulateNetOpts(n *Net, opts Options) *Snapshot {
	workers := opts.workers()
	tab := n.coreFor(workers).tab
	filters := n.filterState
	last, stale := n.lastResult()
	b := newColBuild(tab, last, stale)
	igp := n.runOSPF(workers, filters, last, b.dirty)
	dv := make(map[string][]*Route)
	for _, p := range distanceVectors {
		for r, rts := range n.runDV(workers, p) {
			dv[r] = append(dv[r], rts...)
		}
	}
	bgp := n.runBGP(igp, workers)
	b.assemble(workers, filters, igp, dv, bgp)
	n.remember(&simResult{ospfRows: igp.rows, cols: b.cols})
	return &Snapshot{Net: n, OSPFDist: igp.dist, tab: tab, cols: b.cols, ospfRows: igp.rows, filters: filters, workers: workers,
		converged: &converged{dv: dv, bgp: bgp}}
}

// converged is what a simulation's distance-vector and BGP computations
// left for its Snapshot's on-read columns: the converged per-router
// routes, which depend on no column. dv holds each router's RIP and
// EIGRP routes.
type converged struct {
	dv  map[string][]*Route
	bgp *bgpState
}

// onReadColumns counts the columns Snapshots computed on read, over the
// process's lifetime; the tests read it to pin that the pipeline never
// takes that path.
var onReadColumns atomic.Int64

// column returns the route column of table prefix pi: a destination's
// from the simulation, any other from the columns the Snapshot computes
// on the first read that needs one.
func (s *Snapshot) column(pi int32) []*Route {
	if s.tab.dest[pi] {
		return s.cols[pi]
	}
	return s.otherColumns()[pi]
}

// otherColumns returns the Snapshot's non-destination columns, computing
// them once, on first use, into storage of its own: no other Snapshot or
// delta shares them. The computation is a simulation's own per-prefix
// OSPF body and assembly, over what the simulation captured — the Net's
// filter-independent core, the filter view it was simulated under and the
// converged RIP, EIGRP and BGP routes — so it reads nothing the Net's
// later filter edits, InvalidateFilters calls or in-place additions
// change.
func (s *Snapshot) otherColumns() [][]*Route {
	s.otherOnce.Do(func() {
		tab := s.tab
		b := &colBuild{tab: tab, dirty: make([]bool, len(tab.prefixes)), cols: make([][]*Route, len(tab.prefixes))}
		count := 0
		for pi, d := range tab.dest {
			if !d {
				b.dirty[pi] = true
				count++
			}
		}
		workers := s.traceWorkers()
		igp := s.Net.runOSPF(workers, s.filters, nil, b.dirty)
		b.assemble(workers, s.filters, igp, s.converged.dv, s.converged.bgp)
		s.others, s.converged = b.cols, nil
		onReadColumns.Add(int64(count))
	})
	return s.others
}

// colBuild is one column assembly: a simulation's new column set, whose
// clean destination columns are the previous result's and whose dirty
// ones are rebuilt, or a Snapshot's on-read columns, all dirty.
type colBuild struct {
	tab   *prefixTable
	dirty []bool // by table index
	cols  [][]*Route
}

// newColBuild marks the destinations a simulation rebuilds: every one
// without a remembered result, else those stale marks. The clean
// destination columns are last's, shared; the other columns stay nil,
// for the Snapshot to compute on read.
func newColBuild(tab *prefixTable, last *simResult, stale *FilterDiff) *colBuild {
	b := &colBuild{tab: tab, dirty: make([]bool, len(tab.prefixes)), cols: make([][]*Route, len(tab.prefixes))}
	for pi, p := range tab.prefixes {
		switch {
		case !tab.dest[pi]:
		case last == nil || stale.Marks(p):
			b.dirty[pi] = true
		default:
			b.cols[pi] = last.cols[pi]
		}
	}
	return b
}

// assemble builds every dirty column. A device's entry is the
// administrative-distance winner among its connected and static
// candidates (the prefix table's), its OSPF route (the prefix's row), its
// BGP routes and its RIP and EIGRP routes (dv). Columns fan out first;
// the per-router protocol results then fan out by router, each writing
// only its own slot of the dirty columns. It reads the filter view
// filters, never the live configurations.
func (b *colBuild) assemble(workers int, filters *filterState, igp *ospfState, dv map[string][]*Route, bgp *bgpState) {
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
		bgp.offerRoutes(igp, filters, name, di, b)
		for _, rt := range dv[name] {
			b.offer(di, rt)
		}
	})
}

// offer installs rt at device di when its prefix's column is being
// built; see put.
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

// resolveDirect finds the link of dev whose far-end address equals addr
// and returns the far-end device and dev's interface on it.
func (n *Net) resolveDirect(dev string, addr netip.Addr) (nb, iface string, ok bool) {
	for _, l := range n.linksOf[dev] {
		other, _ := l.Other(dev)
		if other.Addr == addr {
			local, _ := l.Local(dev)
			return other.Device, local.Iface, true
		}
	}
	return "", "", false
}
