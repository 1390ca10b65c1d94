package anonymize

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// addFilter installs a distribute-list deny rule for prefix p at router r
// against the next hop nh, choosing the attachment point the way the
// paper's implementation does (§6): eBGP-learned routes get a deny on the
// corresponding `neighbor ... distribute-list ... in`, and IGP-learned (or
// iBGP-resolved) routes get a deny on the `distribute-list prefix ... in
// <interface>` of the next-hop interface. It reports whether a new deny
// rule was added (false when the rule already existed or no attachment
// point exists).
func addFilter(cfg *config.Network, view *sim.Net, r string, nh sim.NextHop, p netip.Prefix, src sim.Source) bool {
	d := cfg.Device(r)
	if d == nil {
		return false
	}
	if src == sim.SrcEBGP {
		return addNeighborFilter(cfg, view, d, nh, p)
	}
	return addInterfaceFilter(d, nh.Iface, p, src)
}

// addNeighborFilter denies p on the BGP session riding the link behind nh.
func addNeighborFilter(cfg *config.Network, view *sim.Net, d *config.Device, nh sim.NextHop, p netip.Prefix) bool {
	if d.BGP == nil {
		return false
	}
	// Locate the far-end address of the link used by the next hop, then
	// the matching neighbor statement.
	var peerAddr netip.Addr
	for _, l := range view.LinksOf(d.Hostname) {
		local, _ := l.Local(d.Hostname)
		other, _ := l.Other(d.Hostname)
		if local.Iface == nh.Iface && other.Device == nh.Device {
			peerAddr = other.Addr
			break
		}
	}
	if !peerAddr.IsValid() {
		return false
	}
	for _, nb := range d.BGP.Neighbors {
		if nb.Addr != peerAddr {
			continue
		}
		name := nb.DistributeListIn
		if name == "" {
			name = "CMF-BGP-" + sanitize(peerAddr.String())
			nb.DistributeListIn = name
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
// filter (see bgpFIBRoutes), so they attach there too.
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
// against nh; used by Algorithm 2's reachability repair.
func removeFilterDeny(cfg *config.Network, view *sim.Net, r string, nh sim.NextHop, p netip.Prefix, src sim.Source) bool {
	d := cfg.Device(r)
	if d == nil {
		return false
	}
	if src == sim.SrcEBGP && d.BGP != nil {
		for _, l := range view.LinksOf(r) {
			local, _ := l.Local(r)
			other, _ := l.Other(r)
			if local.Iface != nh.Iface || other.Device != nh.Device {
				continue
			}
			for _, nb := range d.BGP.Neighbors {
				if nb.Addr == other.Addr && nb.DistributeListIn != "" {
					if pl := d.PrefixList(nb.DistributeListIn); pl != nil {
						return pl.RemoveDeny(p)
					}
				}
			}
		}
		return false
	}
	filters, _ := igpInFilters(d, src, false)
	if name, ok := filters[nh.Iface]; ok {
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
// must notice a dead context.
//
// The network view is built once and reused: the loop only adds
// distribute-list entries, so each iteration re-derives just the filter
// view (InvalidateFilters) instead of repeating link discovery, SPF, and
// BGP session discovery, and its simulation recomputes only the prefixes
// the previous iteration's new filters deny (a delta over the view's
// previous simulation).
func routeEquivalence(ctx context.Context, out *config.Network, base *baseline, opts Options) (int, int, error) {
	filters := 0
	view, err := sim.Build(out)
	if err != nil {
		return 0, filters, err
	}
	maxIter := opts.MaxIterations
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return iter - 1, filters, err
		}
		opts.progress("equivalence", iter)
		if iter > 1 {
			view.InvalidateFilters()
		}
		snap := sim.SimulateNetOpts(view, opts.simOpts())
		// The scan fans out per router: addFilter only ever mutates the
		// scanned router's own device (its prefix lists and distribute-list
		// maps), and its add-or-skip decision reads only the snapshot, the
		// immutable baseline, and that same device — so routers are
		// independent within an iteration and the filters added are
		// identical at any worker count. Per-slot counts merge after the
		// join.
		routers := out.Routers()
		counts := make([]int, len(routers))
		sim.ForEachIndex(opts.simOpts().Workers(), len(routers), func(ri int) {
			r := routers[ri]
			fib := snap.FIB(r)
			if fib == nil {
				return
			}
			orig, known := base.nextHops[r]
			if !known {
				// A fake router (scale-obfuscation extension): it never
				// carries original traffic — wrong paths through it are
				// filtered at the real routers feeding it — and leaving
				// its tables unfiltered is what keeps it inconspicuous.
				return
			}
			for _, p := range base.dests {
				rt := fib[p]
				if rt == nil || rt.Source == sim.SrcConnected || rt.Source == sim.SrcStatic {
					continue
				}
				for _, nh := range rt.NextHops {
					if orig[p][nh.Device] {
						continue // an original next hop
					}
					if base.topo.HasEdge(r, nh.Device) {
						continue // (r, nxt) ∈ E: real link, fixed upstream
					}
					if addFilter(out, snap.Net, r, nh, p, rt.Source) {
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
			// Functional-equivalence assertion over digests: per-pair
			// 128-bit fingerprints of the canonical path sets, extracted
			// through transient per-destination engines — no H² path
			// materialization for either side of the comparison.
			anonDig := snap.PairDigestsFor(base.hosts)
			if pairs := base.digests().DiffPairs(anonDig); len(pairs) != 0 {
				return iter, filters, fmt.Errorf("converged after %d iterations but %d host pairs still differ (first: %v)", iter, len(pairs), pairs[0])
			}
			// External equivalence classes: every router's next-hop set
			// must match the original exactly (the route-equivalence
			// requirement extended to §9 Internet destinations). Compare
			// the sorted slices element-wise — joined strings would let a
			// name containing the separator alias a different set.
			for _, r := range base.cfg.Routers() {
				for _, p := range base.external {
					got := snap.NextHopRouters(r, p)
					want := make([]string, 0, len(base.nextHops[r][p]))
					for nh := range base.nextHops[r][p] {
						want = append(want, nh)
					}
					sort.Strings(want)
					if !slices.Equal(got, want) {
						return iter, filters, fmt.Errorf("external destination %v diverged on %s: %q vs %q", p, r, got, want)
					}
				}
			}
			return iter, filters, nil
		}
	}
	return maxIter, filters, fmt.Errorf("no convergence within %d iterations", maxIter)
}
