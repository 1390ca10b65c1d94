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
// InvalidateFilters; any other change requires a fresh Build.
func SimulateNet(n *Net) *Snapshot {
	return SimulateNetOpts(n, Options{})
}

// SimulateNetOpts is SimulateNet with explicit engine options. The
// result is identical at any parallelism level: every fan-out writes
// index-addressed slots that are merged in deterministic order.
//
// A simulation is a delta over the Net's previous one: only the prefixes
// marked by the FilterDiffs InvalidateFilters returned since then get
// their OSPF rows recomputed and their FIB entries re-arbitrated; every
// other entry is carried forward (per-prefix filter independence, see
// FilterDiff). A Net's first simulation, or one after an All() diff,
// marks every prefix, which is the full computation. RIP, EIGRP and BGP
// converge in full either way; only their dirty prefixes are merged.
func SimulateNetOpts(n *Net, opts Options) *Snapshot {
	workers := opts.workers()
	last, stale := n.lastResult()
	igp := n.runOSPF(workers, last, stale)
	rip := n.runRIP(workers)
	eigrp := n.runEIGRP(workers)
	bgp := n.runBGP(igp, workers)

	names := n.Cfg.Names()
	fibs := make([]FIB, len(names))
	forEachIndex(workers, len(names), func(i int) {
		fibs[i] = n.deviceFIB(names[i], last.fib(i), stale, igp, rip, eigrp, bgp)
	})
	snap := &Snapshot{Net: n, FIBs: make(map[string]FIB, len(names)), OSPFDist: igp.dist, workers: workers}
	for i, name := range names {
		snap.FIBs[name] = fibs[i]
	}
	n.remember(&simResult{ospfRows: igp.rows, fibs: fibs})
	return snap
}

// deviceFIB assembles one device's FIB: prev's entries for the prefixes
// stale leaves clean, plus the administrative-distance winner among the
// converged protocol states for every prefix it marks. A full assembly
// is prev == nil with a nil (all-dirty) stale. It only reads n, prev and
// the protocol results, so devices fan out independently.
func (n *Net) deviceFIB(name string, prev FIB, stale *FilterDiff, igp *ospfState, rip, eigrp map[string]map[netip.Prefix]*Route, bgp *bgpState) FIB {
	d := n.Cfg.Device(name)
	size := len(d.Interfaces) + len(d.Statics)
	if d.Kind == config.RouterKind {
		size += len(igp.dirty)
		if prev == nil {
			size += len(rip[name]) + len(eigrp[name])
		}
	}
	fresh := make(FIB, size)
	install := func(r *Route) {
		if len(r.NextHops) == 0 || !stale.marks(r.Prefix) {
			return
		}
		cur, ok := fresh[r.Prefix]
		if !ok || r.Source < cur.Source {
			fresh[r.Prefix] = r
		}
	}

	// Connected routes: one per addressed interface subnet, with the
	// far ends of matching links as next hops.
	for _, i := range d.Interfaces {
		if !i.Addr.IsValid() {
			continue
		}
		p := i.Addr.Masked()
		if !stale.marks(p) {
			continue
		}
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
			install(&Route{Prefix: p, Source: SrcConnected, NextHops: sortNextHops(nhs)})
		}
	}

	// Static routes: resolve the next-hop address to a directly
	// connected neighbor. Null0 routes install as discard entries —
	// the anchor operators use to originate aggregates and external
	// equivalence-class prefixes into BGP.
	for _, s := range d.Statics {
		if !stale.marks(s.Prefix) {
			continue
		}
		if s.Discard {
			install(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{{Device: DiscardDevice, Iface: "Null0"}}})
			continue
		}
		if nh, ok := n.resolveDirect(name, s.NextHop); ok {
			install(&Route{Prefix: s.Prefix, Source: SrcStatic, NextHops: []NextHop{nh}})
		}
	}

	if d.Kind == config.RouterKind {
		for _, r := range bgp.bgpFIBRoutes(n, igp, name, stale) {
			install(r)
		}
		for _, r := range eigrp[name] {
			install(r)
		}
		if si, ok := igp.speaker(name); ok {
			for _, pi := range igp.dirty {
				if r := igp.rows[pi][si]; r != nil {
					install(r)
				}
			}
		}
		for _, r := range rip[name] {
			install(r)
		}
	}
	return overlayFIB(prev, fresh, stale)
}

// overlayFIB replaces prev's entries for the prefixes stale marks with
// fresh, which holds exactly the re-arbitrated winners for those
// prefixes. When no marked entry changed, prev itself is returned, so a
// device the edit did not reach shares its FIB with the previous
// Snapshot.
func overlayFIB(prev, fresh FIB, stale *FilterDiff) FIB {
	if prev == nil {
		return fresh
	}
	marked, same := 0, true
	for p, rt := range prev {
		if !stale.marks(p) {
			continue
		}
		marked++
		if nr, ok := fresh[p]; !ok || !sameRoute(rt, nr) {
			same = false
			break
		}
	}
	if same && marked == len(fresh) {
		return prev
	}
	fib := make(FIB, len(prev)+len(fresh))
	for p, rt := range prev {
		if !stale.marks(p) {
			fib[p] = rt
		}
	}
	for p, rt := range fresh {
		fib[p] = rt
	}
	return fib
}

// sameRoute reports whether two routes are the same FIB entry.
func sameRoute(a, b *Route) bool {
	if a.Prefix != b.Prefix || a.Source != b.Source || a.Metric != b.Metric || len(a.NextHops) != len(b.NextHops) {
		return false
	}
	for i := range a.NextHops {
		if a.NextHops[i] != b.NextHops[i] {
			return false
		}
	}
	return true
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
