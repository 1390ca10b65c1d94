package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// distanceVector parameterizes the distance-vector engine by protocol:
// the IGP whose process and adjacencies it reads, the source its routes
// install with, and the metric at which a route becomes unreachable (0
// for none). Metrics are igpMetric's: RIP counts hops, and EIGRP uses the
// simplified additive form of its composite metric, the sum of interface
// delays along the path (the dominant term on uniform-bandwidth links).
type distanceVector struct {
	proto    config.Protocol
	src      Source
	infinity int
}

// distanceVectors lists the distance-vector IGPs.
var distanceVectors = [...]distanceVector{
	{config.ProtoRIP, SrcRIP, 16},
	{config.ProtoEIGRP, SrcEIGRP, 0},
}

// dvEntry is one distance-vector entry during iteration.
type dvEntry struct {
	metric   int
	nextHops []NextHop
}

// runDV computes every speaker's routes of one distance-vector IGP with
// synchronous Bellman–Ford iteration until convergence. Each enabled
// interface originates its prefix at its own metric, and a route learned
// over an adjacency adds the receiving interface's metric. Inbound
// distribute-lists on the receiving interface drop the matching
// advertisements — the distance-vector SFE condition 2 mechanism. Within
// a round every router's next vector depends only on the previous round's
// vectors, so the per-router work fans out across the worker pool.
func (n *Net) runDV(workers int, dv distanceVector) map[string][]*Route {
	out := make(map[string][]*Route)

	core := n.coreFor(workers)
	speakers := core.speakers[dv.proto]
	if len(speakers) == 0 {
		return out
	}

	vec := make(map[string]map[netip.Prefix]dvEntry, len(speakers))
	connectedOf := make(map[string]map[netip.Prefix]bool, len(speakers))
	for _, r := range speakers {
		d := n.Cfg.Device(r)
		g := d.IGP(dv.proto)
		v := make(map[netip.Prefix]dvEntry)
		conn := make(map[netip.Prefix]bool)
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				conn[i.Addr.Masked()] = true
			}
			if g.Enables(i) {
				v[i.Addr.Masked()] = dvEntry{metric: igpMetric(dv.proto, i)}
			}
		}
		vec[r] = v
		connectedOf[r] = conn
	}

	// Synchronous rounds; the diameter bounds convergence, the cap guards
	// against pathological oscillation.
	maxRounds := len(speakers) + 4
	for round := 0; round < maxRounds; round++ {
		nvs := make([]map[netip.Prefix]dvEntry, len(speakers))
		diffs := make([]bool, len(speakers))
		forEachIndex(workers, len(speakers), func(idx int) {
			r := speakers[idx]
			d := n.Cfg.Device(r)
			filters := d.IGP(dv.proto).InFilters
			nv := make(map[netip.Prefix]dvEntry)
			for p, e := range vec[r] {
				if len(e.nextHops) == 0 {
					nv[p] = e // connected originations are authoritative
				}
			}
			for _, a := range core.links[dv.proto][r] {
				nh := core.tab.nextHop(a.nb, a.iface)
				list, filtered := filters[a.iface]
				for p, e := range vec[a.nb] {
					if connectedOf[r][p] {
						continue
					}
					m := e.metric + a.metric
					if dv.infinity > 0 && m >= dv.infinity {
						continue
					}
					if filtered && n.denies(d, list, p) {
						continue
					}
					cur, ok := nv[p]
					switch {
					case !ok || m < cur.metric:
						nv[p] = dvEntry{metric: m, nextHops: []NextHop{nh}}
					case m == cur.metric && len(cur.nextHops) > 0:
						cur.nextHops = append(cur.nextHops, nh)
						nv[p] = cur
					}
				}
			}
			nvs[idx] = nv
			diffs[idx] = !core.tab.dvVecEqual(vec[r], nv)
		})
		next := make(map[string]map[netip.Prefix]dvEntry, len(speakers))
		changed := false
		for i, r := range speakers {
			next[r] = nvs[i]
			changed = changed || diffs[i]
		}
		vec = next
		if !changed {
			break
		}
	}

	for _, r := range speakers {
		for p, e := range vec[r] {
			if len(e.nextHops) > 0 { // not a connected origination
				out[r] = append(out[r], &Route{Prefix: p, Source: dv.src, Metric: e.metric, NextHops: core.tab.sortNextHops(e.nextHops)})
			}
		}
	}
	return out
}

func (t *prefixTable) dvVecEqual(a, b map[netip.Prefix]dvEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for p, ea := range a {
		eb, ok := b[p]
		if !ok || ea.metric != eb.metric || len(ea.nextHops) != len(eb.nextHops) {
			return false
		}
		as := t.sortNextHops(append([]NextHop(nil), ea.nextHops...))
		bs := t.sortNextHops(append([]NextHop(nil), eb.nextHops...))
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}
