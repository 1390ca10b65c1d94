package anonymize

import (
	"fmt"
	"math/rand"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/netbuild"
)

// addFakeRouters implements the paper's §9 network-scale-obfuscation
// extension: it generates n fake routers with plausible configurations and
// wires each to 2–3 random real routers over fake links.
//
// Safety argument (the reason functional equivalence is unaffected): no
// original routing path traverses a fake router, because entering one
// requires a fake link out of a *real* router, and Algorithm 1 filters
// every wrong next hop over fake links at the real side. The fake routers
// themselves are never filtered — filtering them would imprint the very
// "denies everything" pattern an adversary could hunt for — so they hold
// ordinary routing tables and even carry fake-host traffic, which is what
// makes them blend in.
//
// Link costs follow the same invariant as fake links (SFE link-state
// condition 2): a through-path p_i → fr → p_j must never cost less than
// the original distance dist(p_i, p_j), or remote routers would re-rank
// their *real* next hops — a distortion no fake-link filter can repair.
// Each attachment therefore carries cost ⌈D/2⌉, where D is the maximum
// original pairwise distance among the attachment points, making every
// through-path cost 2⌈D/2⌉ ≥ D ≥ dist(p_i, p_j). Ties that arise at the
// attachment routers themselves ride fake links and are rejected by
// Algorithm 1 as usual. RIP needs no tuning: its hop metric shortcuts are
// blocked at reception by the same filters.
//
// Only IGP (OSPF/RIP) networks are supported: auto-generating BGP speakers
// that are indistinguishable from human-configured ones is the open
// problem the paper explicitly leaves to future work.
func addFakeRouters(out *config.Network, pool *netaddr.Pool, base *baseline, n int, rng *rand.Rand) ([]string, error) {
	routers := out.Routers()
	if len(routers) == 0 {
		return nil, fmt.Errorf("no routers to attach to")
	}
	var proto struct {
		ospf, rip, eigrp, bgp bool
		eigrpASN              int
	}
	for _, r := range routers {
		d := out.Device(r)
		proto.ospf = proto.ospf || d.OSPF != nil
		proto.rip = proto.rip || d.RIP != nil
		proto.bgp = proto.bgp || d.BGP != nil
		if d.EIGRP != nil {
			proto.eigrp = true
			proto.eigrpASN = d.EIGRP.ID
		}
	}
	if proto.bgp {
		return nil, fmt.Errorf("scale obfuscation supports IGP-only networks (BGP router synthesis is future work)")
	}

	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("fr%d", i+1)
		for out.Device(name) != nil {
			name += "x"
		}
		d := &config.Device{Hostname: name, Kind: config.RouterKind}
		switch {
		case proto.ospf:
			d.OSPF = &config.IGP{ID: 1, InFilters: map[string]string{}}
		case proto.eigrp:
			d.EIGRP = &config.IGP{ID: proto.eigrpASN, InFilters: map[string]string{}}
		case proto.rip:
			d.RIP = &config.IGP{InFilters: map[string]string{}}
		}
		out.Add(d)

		// Attach to 2–3 distinct random real routers. Degree ≥ 2 keeps
		// the fake router from being a conspicuous stub.
		degree := 2 + rng.Intn(2)
		if degree > len(routers) {
			degree = len(routers)
		}
		perm := rng.Perm(len(routers))
		peers := make([]string, 0, degree)
		for j := 0; j < degree; j++ {
			peers = append(peers, routers[perm[j]])
		}
		// Distance-preserving cost for OSPF attachments.
		maxDist := 0
		for _, a := range peers {
			for _, b := range peers {
				if d, ok := base.snap.OSPFDist.Dist(a, b); ok && d > maxDist {
					maxDist = d
				}
			}
		}
		cost := (maxDist + 1) / 2
		if cost < 1 {
			cost = 0 // default cost; e.g. RIP networks
		}
		for _, peer := range peers {
			if _, err := netbuild.AddP2PLink(out, pool, name, peer, netbuild.LinkOpts{
				CostA: cost, CostB: cost, Injected: true,
			}); err != nil {
				return nil, err
			}
		}
		names = append(names, name)
	}
	return names, nil
}
