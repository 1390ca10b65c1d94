package anonymize

import (
	"context"
	"fmt"
	"net/netip"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// strawman1 is the first baseline of §4.3: drop every real host prefix on
// every fake interface, using a single shared RejPfxs list per router —
// Listing 3's pattern. It fixes routing in one pass (a single simulation
// verifies), but the unified pattern makes the fake links identifiable: the
// interfaces that always bind a minimal shared deny set are the fakes.
func strawman1(out *config.Network, base *baseline, opts Options) (*sim.Snapshot, int, int, error) {
	filters := 0
	view, _, err := sim.BuildFrom(out, base.snap)
	if err != nil {
		return nil, 0, filters, err
	}
	for _, r := range out.Routers() {
		d := out.Device(r)
		for _, i := range d.Interfaces {
			if !i.Injected {
				continue
			}
			for _, h := range base.hosts {
				p := base.snap.Net.HostPrefix[h]
				if denyAllOn(out, view, d, i, p, "RejPfxs") {
					filters++
				}
			}
		}
	}
	// Only filters were added, so the view is reusable for the verifying
	// simulation after re-deriving the filter caches.
	view.InvalidateFilters()
	snap := sim.SimulateNetOpts(view, opts.simOpts())
	if pairs := sim.DiffForwarding(base.snap, snap, base.hosts); len(pairs) != 0 {
		return nil, 1, filters, fmt.Errorf("strawman1 left %d host pairs different (first: %v)", len(pairs), pairs[0])
	}
	return snap, 1, filters, nil
}

// denyAllOn attaches the shared list to the fake interface (IGP
// distribute-list, or the BGP neighbor using that interface) and denies p.
func denyAllOn(cfg *config.Network, view *sim.Net, d *config.Device, i *config.Interface, p netip.Prefix, listName string) bool {
	// BGP session on this interface?
	if d.BGP != nil {
		for _, l := range view.LinksOf(d.Hostname) {
			local, _ := l.Local(d.Hostname)
			if local.Iface != i.Name {
				continue
			}
			other, _ := l.Other(d.Hostname)
			for _, nb := range d.BGP.Neighbors {
				if nb.Addr == other.Addr {
					if nb.DistributeListIn == "" {
						nb.DistributeListIn = listName
					}
					pl := d.EnsurePrefixList(nb.DistributeListIn)
					if pl.Denies(p) {
						return false
					}
					pl.Deny(p)
					return true
				}
			}
		}
	}
	var filters map[string]string
	switch {
	case d.OSPF != nil:
		filters = d.OSPF.InFilters
	case d.EIGRP != nil:
		filters = d.EIGRP.InFilters
	case d.RIP != nil:
		filters = d.RIP.InFilters
	default:
		return false
	}
	if _, ok := filters[i.Name]; !ok {
		filters[i.Name] = listName
	}
	pl := d.EnsurePrefixList(filters[i.Name])
	if pl.Denies(p) {
		return false
	}
	pl.Deny(p)
	return true
}

// strawman2 is the second baseline of §4.3: per iteration, traceroute every
// host pair, compare with the original path set, and fix exactly one
// divergent hop per pair — the deepest fake link on a divergent path —
// then re-simulate. Conservative in injected lines but slow, because a
// single wrong hop per pair is repaired per (expensive) simulation round.
// The comparison is sim.DiffForwarding, which reports exactly the pairs
// whose traced path sets differ.
func strawman2(ctx context.Context, out *config.Network, base *baseline, opts Options) (*sim.Snapshot, int, int, error) {
	filters := 0
	view, _, err := sim.BuildFrom(out, base.snap)
	if err != nil {
		return nil, 0, filters, err
	}
	maxIter := opts.MaxIterations
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, iter - 1, filters, err
		}
		opts.progress("equivalence", iter)
		if iter > 1 {
			// Each fixing round adds filters for a handful of destination
			// prefixes, so the next simulation is a delta over those.
			view.InvalidateFilters()
		}
		snap := sim.SimulateNetOpts(view, opts.simOpts())
		diffs := sim.DiffForwarding(base.snap, snap, base.hosts)
		if len(diffs) == 0 {
			return snap, iter, filters, nil
		}
		changed := 0
		for _, pair := range diffs {
			if fixOneHop(out, snap, base, pair) {
				changed++
			}
		}
		filters += changed
		if changed == 0 {
			return nil, iter, filters, fmt.Errorf("strawman2 stuck with %d differing pairs (first: %v)", len(diffs), diffs[0])
		}
	}
	return nil, maxIter, filters, fmt.Errorf("strawman2: no convergence within %d iterations", maxIter)
}

// fixOneHop finds, on some divergent anonymized path for the pair, the
// fake link closest to the destination and denies the destination prefix
// there. Divergent paths with no fake hop are skipped (their cause is an
// upstream pair fixed in a later iteration).
func fixOneHop(out *config.Network, snap *sim.Snapshot, base *baseline, pair sim.Pair) bool {
	dstPfx := base.snap.Net.HostPrefix[pair.Dst]
	origKeys := make(map[string]bool)
	for _, p := range base.snap.TraceFrom(pair.Src, pair.Dst) {
		origKeys[p.Key()] = true
	}
	for _, path := range snap.TraceFrom(pair.Src, pair.Dst) {
		if origKeys[path.Key()] {
			continue
		}
		// Walk from the destination backward looking for a fake link.
		for i := len(path.Hops) - 2; i >= 1; i-- {
			a, b := path.Hops[i], path.Hops[i+1]
			if out.Device(b).Kind != config.RouterKind {
				continue
			}
			if base.topo.HasEdge(a, b) {
				continue // real link
			}
			rt := snap.Route(a, dstPfx)
			if rt == nil {
				continue
			}
			for _, nh := range rt.NextHops {
				if nh.Device != b {
					continue
				}
				if addFilter(out, snap.Net, a, nh, dstPfx, rt.Source) {
					return true
				}
			}
		}
	}
	return false
}
