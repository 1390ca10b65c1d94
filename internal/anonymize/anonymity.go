package anonymize

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"

	"confmask/internal/config"
	"confmask/internal/kdegree"
	"confmask/internal/netaddr"
	"confmask/internal/netbuild"
	"confmask/internal/sim"
)

// routeAnonymity is Algorithm 2 (§5.3): add k_H − 1 fake twin hosts per
// real host on the same ingress router, each with a fresh prefix outside
// the original address space, then randomly (probability p per FIB entry
// next hop) add deny filters for the fake destinations so their routes
// diverge from the real twins' — while repairing any filter combination
// that breaks a fake host's reachability.
//
// It returns the fake host names and the number of noise filters kept.
// Cancellation is observed between repair rounds (each costs a filter
// re-derivation, a delta re-simulation of the dirty prefixes and their
// re-traces), the same granularity as Algorithm 1's per-iteration checks.
func routeAnonymity(ctx context.Context, out *config.Network, pool *netaddr.Pool, base *baseline, opts Options, rng *rand.Rand) ([]string, int, error) {
	kH, p := opts.KH, opts.NoiseP
	gw := base.snap.Net.GatewayOf
	var fakeHosts []string
	fakePrefix := make(map[string]netip.Prefix)
	realOf := make(map[string]string)
	for _, h := range base.hosts {
		router := gw[h]
		for i := 1; i < kH; i++ {
			name := fmt.Sprintf("%s-fk%d", h, i)
			for out.Device(name) != nil {
				name += "x"
			}
			pfx, err := netbuild.AddHostLAN(out, pool, name, router, netbuild.HostOpts{
				Injected:     true,
				AdvertiseBGP: out.Device(router).BGP != nil,
			})
			if err != nil {
				return nil, 0, err
			}
			fakeHosts = append(fakeHosts, name)
			fakePrefix[name] = pfx
			realOf[name] = h
		}
	}

	// Expected reachability: a fake twin should be reachable from a router
	// exactly when its real twin was in the original network. One dense
	// delivered vector per real host answers every router at once from the
	// base snapshot's per-destination census (sim.DeliveredFrom) — no path
	// materialization — and is cached across repair rounds; k_H = 1 runs
	// pay nothing.
	routers := out.Routers()
	expect := make(map[string][]bool, len(base.hosts))
	expectFor := func(h string) []bool {
		v, ok := expect[h]
		if !ok {
			v = base.snap.DeliveredFrom(h, routers)
			expect[h] = v
		}
		return v
	}

	// The fake twins changed the topology, so one fresh Build is needed;
	// from here on only filters change, so the repair loop reuses the view.
	view, err := sim.Build(out)
	if err != nil {
		return nil, 0, err
	}
	snap := sim.SimulateNetOpts(view, opts.simOpts())

	// Noise pass: per FIB entry for a fake destination, per next hop, flip
	// a p-coin and deny. The records are indexed by (router, prefix), each
	// key's list in the order the pass added them, so a repair touches
	// only the records it can remove; kept counts the records standing.
	type rec struct {
		nh  sim.NextHop
		src sim.Source
	}
	type recKey struct {
		router string
		pfx    netip.Prefix
	}
	recs := make(map[recKey][]rec)
	kept := 0
	for _, r := range out.Routers() {
		fib := snap.FIB(r)
		if fib == nil {
			continue
		}
		for _, fh := range fakeHosts {
			rt := fib[fakePrefix[fh]]
			if rt == nil || rt.Source == sim.SrcConnected || rt.Source == sim.SrcStatic {
				continue
			}
			for _, nh := range rt.NextHops {
				if rng.Float64() >= p {
					continue
				}
				if addFilter(out, snap.Net, r, nh, rt.Prefix, rt.Source) {
					k := recKey{router: r, pfx: rt.Prefix}
					recs[k] = append(recs[k], rec{nh: nh, src: rt.Source})
					kept++
				}
			}
		}
	}

	// Repair pass: while some fake host that should be reachable from a
	// router is not, remove the local noise filters for it there. Every
	// black-hole point necessarily holds a local filter (only filters
	// remove candidates), so each round removes at least one record and
	// the loop terminates.
	//
	// Each round only re-checks dirty destinations: InvalidateFilters
	// reports which prefixes had deny decisions change since the previous
	// round (round 0's diff covers the whole noise pass), and a fake host
	// whose prefix is untouched kept the reachability it had when last
	// checked — its FIB entries are byte-identical (per-prefix filter
	// independence, see sim.FilterDiff).
	//
	// Rounds split into two phases. Phase 1 computes each dirty fake
	// host's delivered vector over all routers — a pure read of the round
	// snapshot's per-destination census — sharded across hub-separated
	// router partitions (anonymityGroups, the same decomposition Algorithm
	// 3 partitions by). Phase 2 applies the removal decisions sequentially
	// in the global fakeHosts × routers order against the same (stale
	// within the round) vectors — exactly the order and the data the
	// pre-partition loop used, since its own checks also read the
	// unchanged round snapshot. Output is therefore byte-identical at any
	// worker count and whether or not the graph decomposes.
	groups, _ := anonymityGroups(view, fakeHosts, gw, realOf, opts.KR)
	workers := opts.simOpts().Workers()
	broken := make(map[string]bool)
	for round := 0; round <= kept; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		diff := view.InvalidateFilters()
		snap = sim.SimulateNetOpts(view, opts.simOpts())

		// Phase 1: delivered vectors for the round's dirty fake hosts.
		// Hosts found broken last round stay dirty even when their prefix
		// is clean (a failed removal leaves them broken with unchanged
		// filters, which must surface as an error below).
		dirtyByGroup := make([][]string, len(groups))
		for gi, g := range groups {
			for _, fh := range g {
				if round > 0 && !broken[fh] && !diff.Affects(fakePrefix[fh]) {
					continue
				}
				dirtyByGroup[gi] = append(dirtyByGroup[gi], fh)
			}
		}
		vecByGroup := make([][][]bool, len(groups))
		sim.ForEachIndex(workers, len(groups), func(gi int) {
			vecs := make([][]bool, len(dirtyByGroup[gi]))
			for i, fh := range dirtyByGroup[gi] {
				vecs[i] = snap.DeliveredFrom(fh, routers)
			}
			vecByGroup[gi] = vecs
		})
		got := make(map[string][]bool)
		for gi, fhs := range dirtyByGroup {
			for i, fh := range fhs {
				got[fh] = vecByGroup[gi][i]
			}
		}

		// Phase 2: sequential removal in global order.
		removedAny := false
		brokenAny := false
		for _, fh := range fakeHosts {
			vec, dirty := got[fh]
			if !dirty {
				continue
			}
			broken[fh] = false
			exp := expectFor(realOf[fh])
			for ri, r := range routers {
				if !exp[ri] || vec[ri] {
					continue
				}
				brokenAny = true
				broken[fh] = true
				k := recKey{router: r, pfx: fakePrefix[fh]}
				rs := recs[k]
				left := rs[:0]
				for _, rc := range rs {
					if removeFilterDeny(out, snap.Net, r, rc.nh, k.pfx, rc.src) {
						removedAny = true
						kept--
						continue
					}
					left = append(left, rc)
				}
				if len(left) < len(rs) {
					recs[k] = left
				}
			}
		}
		if !brokenAny {
			return fakeHosts, kept, nil
		}
		if !removedAny {
			return nil, 0, fmt.Errorf("route anonymity: unreachable fake host with no local filter to remove")
		}
	}
	return fakeHosts, kept, nil
}

// anonymityGroups shards the fake hosts for the repair loop's phase-1
// delivery checks: the hub-separated router partitions of the working
// network (kdegree.Partition — the decomposition Algorithm 3
// parallelizes by) group the fake hosts by the partition holding their
// gateway. Grouping is purely a sharding decision — phase 1 is read-only
// and phase 2 applies removals in global order — so it can never change
// the output, and any failure to decompose (small network, no hub
// separation, a gateway outside every partition such as a host attached
// directly to a hub) falls back to the global path: one group holding
// every fake host, checked as a single shard. The second return reports
// whether the hub decomposition applied.
func anonymityGroups(view *sim.Net, fakeHosts []string, gw, realOf map[string]string, kR int) ([][]string, bool) {
	global := [][]string{fakeHosts}
	g := view.Topology().RouterSubgraph()
	if g.NumNodes() < partitionMinRouters {
		return global, false
	}
	parts := kdegree.Partition(g, kR)
	if parts == nil {
		return global, false
	}
	partOf := make(map[string]int)
	for pi, part := range parts {
		for _, r := range part {
			partOf[r] = pi
		}
	}
	groups := make([][]string, len(parts))
	for _, fh := range fakeHosts {
		pi, ok := partOf[gw[realOf[fh]]]
		if !ok {
			return global, false
		}
		groups[pi] = append(groups[pi], fh)
	}
	out := groups[:0]
	for _, grp := range groups {
		if len(grp) > 0 {
			out = append(out, grp)
		}
	}
	if len(out) == 0 {
		return global, false
	}
	return out, true
}

// realTwin recovers a fake host's real twin from its name pattern.
// routeAnonymity records the mapping at twin creation (realOf) instead of
// scanning; this recovery exists for callers that only see rendered
// output, such as the anonymity metrics tests.
func realTwin(fh string, hosts []string) string {
	for _, h := range hosts {
		if len(fh) > len(h) && fh[:len(h)] == h && fh[len(h):len(h)+3] == "-fk" {
			return h
		}
	}
	return ""
}

func delivered(ps []sim.Path) bool {
	for _, p := range ps {
		if p.Status == sim.Delivered {
			return true
		}
	}
	return false
}
