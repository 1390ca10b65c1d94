package sim

import (
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// lpmScan is the reference for a host's longest-prefix-match chain: its
// LAN prefix, then every other table prefix containing its address,
// longest first and in table order among equal lengths, found by scanning
// the whole table.
func lpmScan(t *prefixTable, pfx netip.Prefix, addr netip.Addr) []int32 {
	var pis []int32
	for pi, p := range t.prefixes {
		if p != pfx && p.Contains(addr) {
			pis = append(pis, int32(pi))
		}
	}
	sort.SliceStable(pis, func(a, b int) bool { return t.prefixes[pis[a]].Bits() > t.prefixes[pis[b]].Bits() })
	return append([]int32{t.index(pfx)}, pis...)
}

// TestLPMChainsMatchScan pins the chains buildPrefixTable records per
// host to a scan of the table, on the catalog (FatTree08 aside) and on the
// cap-boundary networks, and requires that no other device has one. The
// hosts' static defaults put 0.0.0.0/0 in every chain, so the covering
// part is exercised too.
func TestLPMChainsMatchScan(t *testing.T) {
	snaps := make(map[string]*Snapshot)
	for id, cfg := range catalogNets(t) {
		snaps[id] = mustSim(t, cfg)
	}
	for _, c := range []capCase{diamondCase(t, 8), truncatedCase(t, true, true)} {
		snaps[c.name] = c.snap
	}
	covered := false
	for name, snap := range snaps {
		tab := snap.tab
		for di, dev := range tab.devices {
			pfx, host := snap.Net.HostPrefix[dev]
			got := tab.lpm[di]
			if !host {
				if got != nil {
					t.Fatalf("%s: non-host %s has chain %v", name, dev, got)
				}
				continue
			}
			if want := lpmScan(tab, pfx, hostAddr(snap.Net, dev)); !slices.Equal(got, want) {
				t.Fatalf("%s: %s's chain %v, scan %v", name, dev, got, want)
			}
			covered = covered || len(got) > 1
		}
	}
	if !covered {
		t.Fatal("no host has a covering prefix: the chains' tails are untested")
	}
}
