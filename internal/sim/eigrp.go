package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// eigrpEnabled reports whether an interface participates in the device's
// EIGRP process.
func eigrpEnabled(d *config.Device, i *config.Interface) bool {
	if d.EIGRP == nil || !i.Addr.IsValid() {
		return false
	}
	for _, nw := range d.EIGRP.Networks {
		if nw.Contains(i.Addr.Addr()) {
			return true
		}
	}
	return false
}

// eigrpLinkEnabled reports whether a router-router link exchanges EIGRP
// advertisements: both endpoint interfaces must be enabled and the
// processes must share an AS number (EIGRP only peers within an AS).
func (n *Net) eigrpLinkEnabled(l *Link) bool {
	da := n.Cfg.Device(l.A.Device)
	db := n.Cfg.Device(l.B.Device)
	if da.Kind != config.RouterKind || db.Kind != config.RouterKind {
		return false
	}
	if da.EIGRP == nil || db.EIGRP == nil || da.EIGRP.ASN != db.EIGRP.ASN {
		return false
	}
	ia := da.Interface(l.A.Iface)
	ib := db.Interface(l.B.Iface)
	return ia != nil && ib != nil && eigrpEnabled(da, ia) && eigrpEnabled(db, ib)
}

// runEIGRP computes EIGRP routes with synchronous distance-vector
// iteration. The metric is the simplified additive form of EIGRP's
// composite: the sum of interface delays along the path (the dominant
// term on uniform-bandwidth links), accumulated receiver-side on the
// incoming interface. Inbound distribute-lists drop matching
// advertisements — the distance-vector SFE condition 2 mechanism, exactly
// as for RIP.
func (n *Net) runEIGRP(workers int) map[string]map[netip.Prefix]*Route {
	out := make(map[string]map[netip.Prefix]*Route)

	core := n.coreFor(workers)
	speakers := core.eigrpSpeakers
	if len(speakers) == 0 {
		return out
	}

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
			if eigrpEnabled(d, i) {
				// Connected origination at the interface's own delay.
				v[i.Addr.Masked()] = ripEntry{metric: i.DelayValue()}
			}
		}
		vec[r] = v
		connectedOf[r] = conn
	}

	maxRounds := len(speakers) + 4
	for round := 0; round < maxRounds; round++ {
		nvs := make([]map[netip.Prefix]ripEntry, len(speakers))
		diffs := make([]bool, len(speakers))
		forEachIndex(workers, len(speakers), func(idx int) {
			r := speakers[idx]
			d := n.Cfg.Device(r)
			nv := make(map[netip.Prefix]ripEntry)
			for p, e := range vec[r] {
				if len(e.nextHops) == 0 {
					nv[p] = e // connected originations are authoritative
				}
			}
			for _, a := range core.eigrpLinks[r] {
				nh := core.tab.nextHop(a.nb, a.iface)
				for p, e := range vec[a.nb] {
					if connectedOf[r][p] {
						continue
					}
					m := e.metric + a.metric
					if n.filterDeniesEIGRP(d, a.iface, p) {
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
				continue
			}
			table[p] = &Route{Prefix: p, Source: SrcEIGRP, Metric: e.metric, NextHops: core.tab.sortNextHops(e.nextHops)}
		}
		out[r] = table
	}
	return out
}

func (n *Net) filterDeniesEIGRP(d *config.Device, iface string, p netip.Prefix) bool {
	if d.EIGRP == nil {
		return false
	}
	name, ok := d.EIGRP.InFilters[iface]
	if !ok {
		return false
	}
	return n.denies(d, name, p)
}
