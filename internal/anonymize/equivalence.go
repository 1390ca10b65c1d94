package anonymize

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// addFilter installs a distribute-list deny rule for prefix p at router r
// against the next hop to device nb over r's interface iface, choosing
// the attachment point the way the paper's implementation does (§6):
// eBGP-learned routes get a deny on the corresponding `neighbor ...
// distribute-list ... in`, and IGP-learned (or iBGP-resolved) routes get
// a deny on the `distribute-list prefix ... in <interface>` of the
// next-hop interface. It reports whether a new deny rule was added (false
// when the rule already existed or no attachment point exists). Callers
// name the next hop (sim.Snapshot.NextHopNames).
func addFilter(cfg *config.Network, view *sim.Net, r, nb, iface string, p netip.Prefix, src sim.Source) bool {
	d := cfg.Device(r)
	if d == nil {
		return false
	}
	if src == sim.SrcEBGP {
		return addNeighborFilter(cfg, view, d, nb, iface, p)
	}
	return addInterfaceFilter(d, iface, p, src)
}

// addNeighborFilter denies p on the BGP session riding the link to nb
// behind iface.
func addNeighborFilter(cfg *config.Network, view *sim.Net, d *config.Device, nb, iface string, p netip.Prefix) bool {
	if d.BGP == nil {
		return false
	}
	// Locate the far-end address of the link used by the next hop, then
	// the matching neighbor statement.
	var peerAddr netip.Addr
	for _, l := range view.LinksOf(d.Hostname) {
		local, _ := l.Local(d.Hostname)
		other, _ := l.Other(d.Hostname)
		if local.Iface == iface && other.Device == nb {
			peerAddr = other.Addr
			break
		}
	}
	if !peerAddr.IsValid() {
		return false
	}
	for _, n := range d.BGP.Neighbors {
		if n.Addr != peerAddr {
			continue
		}
		name := n.DistributeListIn
		if name == "" {
			name = "CMF-BGP-" + sanitize(peerAddr.String())
			n.DistributeListIn = name
		}
		pl := d.EnsurePrefixList(name)
		if pl.Denies(p) {
			return false
		}
		pl.Deny(p)
		return true
	}
	return false
}

// igpInFilters selects the inbound distribute-list map of the protocol
// that learned the route, keyed by the route's source — not by whichever
// protocol happens to be configured first. On a multi-protocol device the
// old first-configured selection attached RIP/EIGRP denies to the OSPF
// process, where they filter nothing, so Algorithm 1 stalled: the second
// iteration saw the deny already present and reported no change while the
// wrong route survived. SrcIBGP routes resolve their next hops through
// OSPF, and the installation-time rejection point is the OSPF interface
// filter (see the simulator's bgpState.offerRoutes), so they attach
// there too.
//
// When create is set a missing filter map is allocated; tag names the
// protocol for generated list names, keeping the per-protocol lists of a
// shared interface distinct.
func igpInFilters(d *config.Device, src sim.Source, create bool) (filters map[string]string, tag string) {
	switch src {
	case sim.SrcOSPF, sim.SrcIBGP:
		if d.OSPF == nil {
			return nil, ""
		}
		if d.OSPF.InFilters == nil && create {
			d.OSPF.InFilters = make(map[string]string)
		}
		return d.OSPF.InFilters, "OSPF"
	case sim.SrcEIGRP:
		if d.EIGRP == nil {
			return nil, ""
		}
		if d.EIGRP.InFilters == nil && create {
			d.EIGRP.InFilters = make(map[string]string)
		}
		return d.EIGRP.InFilters, "EIGRP"
	case sim.SrcRIP:
		if d.RIP == nil {
			return nil, ""
		}
		if d.RIP.InFilters == nil && create {
			d.RIP.InFilters = make(map[string]string)
		}
		return d.RIP.InFilters, "RIP"
	}
	return nil, ""
}

// addInterfaceFilter denies p on the inbound distribute-list of iface for
// the protocol that learned the route.
func addInterfaceFilter(d *config.Device, iface string, p netip.Prefix, src sim.Source) bool {
	filters, tag := igpInFilters(d, src, true)
	if filters == nil {
		return false
	}
	name, ok := filters[iface]
	if !ok {
		name = "CMF-" + tag + "-" + sanitize(iface)
		filters[iface] = name
	}
	pl := d.EnsurePrefixList(name)
	if pl.Denies(p) {
		return false
	}
	pl.Deny(p)
	return true
}

// removeFilterDeny removes a deny rule previously added for p at router r
// against the next hop to nb over iface; used by Algorithm 2's
// reachability repair.
func removeFilterDeny(cfg *config.Network, view *sim.Net, r, nb, iface string, p netip.Prefix, src sim.Source) bool {
	d := cfg.Device(r)
	if d == nil {
		return false
	}
	if src == sim.SrcEBGP && d.BGP != nil {
		for _, l := range view.LinksOf(r) {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			if local.Iface != iface || other.Device != nb {
				continue
			}
			for _, n := range d.BGP.Neighbors {
				if n.Addr == other.Addr && n.DistributeListIn != "" {
					if pl := d.PrefixList(n.DistributeListIn); pl != nil {
						return pl.RemoveDeny(p)
					}
				}
			}
		}
		return false
	}
	filters, _ := igpInFilters(d, src, false)
	if name, ok := filters[iface]; ok {
		if pl := d.PrefixList(name); pl != nil {
			return pl.RemoveDeny(p)
		}
	}
	return false
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// routeEquivalence is Algorithm 1 (§5.2): repeatedly simulate the
// intermediate network and, for every ⟨router, host destination⟩ FIB entry
// whose next hop is neither an original next hop nor reached over an
// original link, add a deny filter for that destination on the fake link.
// The loop ends when an iteration adds no filter, at which point the SFE
// conditions hold; a final data-plane comparison asserts functional
// equivalence. Cancellation is observed between iterations — each
// iteration costs a control-plane simulation, so this is where long jobs
// must notice a dead context. It returns the final Snapshot, which
// simulates out as it stands on return.
//
// The network view is seeded from the baseline (sim.BuildFrom): when the
// topology stage added no fake edge or router, every column is the
// baseline's and the input is not simulated again. The loop only adds
// distribute-list entries, so each later iteration re-derives just the
// filter view (InvalidateFilters), and its simulation recomputes only the
// prefixes the previous iteration's new filters deny.
//
// Each iteration scans only the destinations whose columns may have
// changed since the previous scan: at first those the seeded build could
// not carry over, then those the last InvalidateFilters diff marks. The
// scan reads each destination's own column only, so the exact-prefix test
// (FilterDiff.Marks) suffices. A clean column is the one the previous
// scan read (or the baseline's own, which holds no wrong next hop), and
// filters only accumulate, so every addFilter call it would cause
// returned false last time and would again.
func routeEquivalence(ctx context.Context, out *config.Network, base *baseline, opts Options) (*sim.Snapshot, int, int, error) {
	filters := 0
	view, diff, err := sim.BuildFrom(out, base.snap)
	if err != nil {
		return nil, 0, filters, err
	}
	maxIter := opts.MaxIterations
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, iter - 1, filters, err
		}
		if iter > 1 {
			opts.progress("equivalence", iter)
			diff = view.InvalidateFilters()
		}
		snap := sim.SimulateNetOpts(view, opts.simOpts())
		var dests []netip.Prefix
		for _, p := range base.dests {
			if diff.Marks(p) {
				dests = append(dests, p)
			}
		}
		// The scan fans out per router: addFilter only ever mutates the
		// scanned router's own device (its prefix lists and distribute-list
		// maps), and its add-or-skip decision reads only the snapshot, the
		// immutable baseline, and that same device — so routers are
		// independent within an iteration and the filters added are
		// identical at any worker count. Per-slot counts merge after the
		// join.
		routers := out.Routers()
		counts := make([]int, len(routers))
		toBase := sim.MapDevices(snap, base.snap)
		sim.ForEachIndex(opts.simOpts().Workers(), len(routers), func(ri int) {
			r := routers[ri]
			if base.cfg.Device(r) == nil {
				// A fake router (scale-obfuscation extension): it never
				// carries original traffic — wrong paths through it are
				// filtered at the real routers feeding it — and leaving
				// its tables unfiltered is what keeps it inconspicuous.
				return
			}
			for _, p := range dests {
				rt := snap.Route(r, p)
				if rt == nil || rt.Source == sim.SrcConnected || rt.Source == sim.SrcStatic {
					continue
				}
				orig := base.snap.Route(r, p)
				for _, nh := range rt.NextHops {
					if leadsTo(orig, toBase, nh.Dev) {
						continue // an original next hop
					}
					nb, iface := snap.NextHopNames(nh)
					if base.topo.HasEdge(r, nb) {
						continue // (r, nxt) ∈ E: real link, fixed upstream
					}
					if addFilter(out, snap.Net, r, nb, iface, p, rt.Source) {
						counts[ri]++
					}
				}
			}
		})
		changed := 0
		for _, c := range counts {
			changed += c
		}
		filters += changed
		if changed == 0 {
			// Functional-equivalence assertion: destinations whose
			// successor graphs match the original's are equal outright;
			// only the others are digested (sim.DiffForwarding).
			if pairs := sim.DiffForwarding(base.snap, snap, base.hosts); len(pairs) != 0 {
				return nil, iter, filters, fmt.Errorf("converged after %d iterations but %d host pairs still differ (first: %v)", iter, len(pairs), pairs[0])
			}
			// External equivalence classes: every router's next-hop set
			// must match the original exactly (the route-equivalence
			// requirement extended to §9 Internet destinations). Compare
			// the sorted slices element-wise — joined strings would let a
			// name containing the separator alias a different set — and
			// uncompacted on both sides: SFE keeps each of two parallel
			// links to one neighbour, so both must survive.
			for _, r := range base.cfg.Routers() {
				for _, p := range base.external {
					got := snap.NextHopRouters(r, p)
					want := base.snap.NextHopRouters(r, p)
					if !slices.Equal(got, want) {
						return nil, iter, filters, fmt.Errorf("external destination %v diverged on %s: %q vs %q", p, r, got, want)
					}
				}
			}
			return snap, iter, filters, nil
		}
	}
	return nil, maxIter, filters, fmt.Errorf("no convergence within %d iterations", maxIter)
}

// leadsTo reports whether some next hop of rt (nil: no route) is the
// device dev, which m translates into rt's device table.
func leadsTo(rt *sim.Route, m sim.DeviceMap, dev int32) bool {
	d, ok := m.Map(dev)
	if rt == nil || !ok {
		return false
	}
	for _, nh := range rt.NextHops {
		if nh.Dev == d {
			return true
		}
	}
	return false
}
