package anonymize

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"confmask/internal/config"
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
	// delivered vector per real host answers every router at once from one
	// reverse walk of the base snapshot's successor graph (sim.DeliveredFrom)
	// — no path materialization — and is cached across repair rounds;
	// k_H = 1 runs pay nothing.
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
		for _, fh := range fakeHosts {
			rt := snap.Route(r, fakePrefix[fh])
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
	// remove candidates), so each round either returns or removes at
	// least one record, and the loop terminates. Its bound is the record
	// count before the first round: by then the last round to start has
	// no record left to remove, so every way out of the loop re-checked
	// the network after the last removal.
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
	// snapshot, one reverse walk per host (sim.DeliveredFrom) — sharded by
	// index across the workers, each host writing its own slot. Phase 2
	// applies the removal decisions sequentially in the global fakeHosts ×
	// routers order against those same (stale within the round) vectors.
	// Output is therefore byte-identical at any worker count.
	workers := opts.simOpts().Workers()
	broken := make(map[string]bool)
	records := kept
	for round := 0; round <= records; round++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		diff := view.InvalidateFilters()
		snap = sim.SimulateNetOpts(view, opts.simOpts())

		// Phase 1: delivered vectors for the round's dirty fake hosts.
		// Hosts found broken last round stay dirty even when their prefix
		// is clean (a failed removal leaves them broken with unchanged
		// filters, which must surface as an error below).
		var dirty []string
		for _, fh := range fakeHosts {
			if round == 0 || broken[fh] || diff.Affects(fakePrefix[fh]) {
				dirty = append(dirty, fh)
			}
		}
		vecs := make([][]bool, len(dirty))
		sim.ForEachIndex(workers, len(dirty), func(i int) {
			vecs[i] = snap.DeliveredFrom(dirty[i], routers)
		})

		// Phase 2: sequential removal in global order.
		removedAny := false
		brokenAny := false
		for di, fh := range dirty {
			vec := vecs[di]
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
	return nil, 0, fmt.Errorf("route anonymity: repair did not converge within %d rounds", records+1)
}

// realTwin recovers a fake host's real twin from its name pattern.
// routeAnonymity records the mapping at twin creation (realOf) instead of
// scanning; this recovery exists for callers that only see rendered
// output, such as the anonymity metrics tests.
func realTwin(fh string, hosts []string) string {
	for _, h := range hosts {
		if strings.HasPrefix(fh, h+"-fk") {
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
