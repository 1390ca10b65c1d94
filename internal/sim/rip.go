package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// ripInfinity is the RIP unreachable metric.
const ripInfinity = 16

// ripEnabled reports whether an interface participates in the device's RIP
// process.
func ripEnabled(d *config.Device, i *config.Interface) bool {
	if d.RIP == nil || !i.Addr.IsValid() {
		return false
	}
	for _, nw := range d.RIP.Networks {
		if nw.Contains(i.Addr.Addr()) {
			return true
		}
	}
	return false
}

// ripLinkEnabled reports whether a router-router link exchanges RIP
// advertisements: both endpoint interfaces must be enabled.
func (n *Net) ripLinkEnabled(l *Link) bool {
	da := n.Cfg.Device(l.A.Device)
	db := n.Cfg.Device(l.B.Device)
	if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
		return false
	}
	ia := da.Interface(l.A.Iface)
	ib := db.Interface(l.B.Iface)
	return ia != nil && ib != nil && ripEnabled(da, ia) && ripEnabled(db, ib)
}

// ripEntry is one distance-vector entry during iteration.
type ripEntry struct {
	metric   int
	nextHops []NextHop
}

// runRIP computes RIP routes with synchronous Bellman–Ford iteration until
// convergence. Inbound distribute-lists on the receiving interface drop the
// matching advertisements — the distance-vector SFE condition 2 mechanism.
// Within a round every router's next vector depends only on the previous
// round's vectors, so the per-router work fans out across the worker pool.
func (n *Net) runRIP(workers int) map[string]map[netip.Prefix]*Route {
	out := make(map[string]map[netip.Prefix]*Route)

	core := n.coreFor(workers)
	speakers := core.ripSpeakers
	if len(speakers) == 0 {
		return out
	}

	// Connected originations: every RIP-enabled interface prefix at
	// metric 1.
	vec := make(map[string]map[netip.Prefix]ripEntry, len(speakers))
	connectedOf := make(map[string]map[netip.Prefix]bool, len(speakers))
	for _, r := range speakers {
		d := n.Cfg.Device(r)
		v := make(map[netip.Prefix]ripEntry)
		conn := make(map[netip.Prefix]bool)
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				conn[i.Addr.Masked()] = true
			}
			if ripEnabled(d, i) {
				v[i.Addr.Masked()] = ripEntry{metric: 1}
			}
		}
		vec[r] = v
		connectedOf[r] = conn
	}

	// Synchronous rounds; the diameter bounds convergence, the cap guards
	// against pathological oscillation.
	maxRounds := len(speakers) + 4
	for round := 0; round < maxRounds; round++ {
		nvs := make([]map[netip.Prefix]ripEntry, len(speakers))
		diffs := make([]bool, len(speakers))
		forEachIndex(workers, len(speakers), func(idx int) {
			r := speakers[idx]
			d := n.Cfg.Device(r)
			nv := make(map[netip.Prefix]ripEntry)
			// Connected entries are authoritative.
			for p, e := range vec[r] {
				if e.metric == 1 && len(e.nextHops) == 0 {
					nv[p] = e
				}
			}
			for _, a := range core.ripLinks[r] {
				nh := core.tab.nextHop(a.nb, a.iface)
				for p, e := range vec[a.nb] {
					if connectedOf[r][p] {
						continue
					}
					m := e.metric + a.metric
					if m >= ripInfinity {
						continue
					}
					if n.filterDeniesRIP(d, a.iface, p) {
						continue
					}
					cur, ok := nv[p]
					switch {
					case !ok || m < cur.metric:
						nv[p] = ripEntry{metric: m, nextHops: []NextHop{nh}}
					case m == cur.metric && len(cur.nextHops) > 0:
						cur.nextHops = append(cur.nextHops, nh)
						nv[p] = cur
					}
				}
			}
			nvs[idx] = nv
			diffs[idx] = !core.tab.ripVecEqual(vec[r], nv)
		})
		next := make(map[string]map[netip.Prefix]ripEntry, len(speakers))
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
		table := make(map[netip.Prefix]*Route)
		for p, e := range vec[r] {
			if len(e.nextHops) == 0 {
				continue // connected origination, not a RIP route
			}
			table[p] = &Route{Prefix: p, Source: SrcRIP, Metric: e.metric, NextHops: core.tab.sortNextHops(e.nextHops)}
		}
		out[r] = table
	}
	return out
}

func (n *Net) filterDeniesRIP(d *config.Device, iface string, p netip.Prefix) bool {
	if d.RIP == nil {
		return false
	}
	name, ok := d.RIP.InFilters[iface]
	if !ok {
		return false
	}
	return n.denies(d, name, p)
}

func (t *prefixTable) ripVecEqual(a, b map[netip.Prefix]ripEntry) bool {
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
