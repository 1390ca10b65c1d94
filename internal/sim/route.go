package sim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
)

// Source identifies the protocol a route was installed from, ordered by
// Cisco administrative distance: lower wins.
type Source int

const (
	// SrcConnected is a directly connected subnet (AD 0).
	SrcConnected Source = iota
	// SrcStatic is a static route (AD 1).
	SrcStatic
	// SrcEBGP is an eBGP-learned route (AD 20).
	SrcEBGP
	// SrcEIGRP is an internal EIGRP route (AD 90).
	SrcEIGRP
	// SrcOSPF is an OSPF route (AD 110).
	SrcOSPF
	// SrcRIP is a RIP route (AD 120).
	SrcRIP
	// SrcIBGP is an iBGP-learned route (AD 200).
	SrcIBGP
)

func (s Source) String() string {
	switch s {
	case SrcConnected:
		return "connected"
	case SrcStatic:
		return "static"
	case SrcEBGP:
		return "ebgp"
	case SrcEIGRP:
		return "eigrp"
	case SrcOSPF:
		return "ospf"
	case SrcRIP:
		return "rip"
	case SrcIBGP:
		return "ibgp"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// DiscardDevice is the pseudo next-hop device of a Null0 discard route;
// traffic forwarded to it is dropped (it has no FIB), matching Null0
// semantics.
const DiscardDevice = "_null0_"

// NextHop is one forwarding choice of a FIB entry.
type NextHop struct {
	Device string // next device (router or host), or DiscardDevice
	Iface  string // outgoing interface on the current router
}

// Route is one FIB entry: the best route to Prefix after administrative-
// distance arbitration, possibly with multiple equal-cost next hops.
type Route struct {
	Prefix   netip.Prefix
	Source   Source
	Metric   int
	NextHops []NextHop
}

// sortNextHops orders next hops deterministically and removes duplicates.
func sortNextHops(nhs []NextHop) []NextHop {
	// Insertion sort: next-hop lists are ECMP-width (a handful of
	// entries), and the closure-free sort keeps the per-route cost out of
	// the allocator on the 10⁵–10⁶-route runs of the scale networks.
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && nextHopLess(nhs[j], nhs[j-1]); j-- {
			nhs[j], nhs[j-1] = nhs[j-1], nhs[j]
		}
	}
	out := nhs[:0]
	var prev NextHop
	for i, nh := range nhs {
		if i > 0 && nh == prev {
			continue
		}
		out = append(out, nh)
		prev = nh
	}
	return out
}

func nextHopLess(a, b NextHop) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Iface < b.Iface
}

// FIB is a router's forwarding table: destination prefix → best route.
type FIB map[netip.Prefix]*Route

// Lookup performs longest-prefix matching for addr.
func (f FIB) Lookup(addr netip.Addr) *Route {
	var best *Route
	for _, r := range f {
		if !r.Prefix.Contains(addr) {
			continue
		}
		if best == nil || r.Prefix.Bits() > best.Prefix.Bits() {
			best = r
		}
	}
	return best
}

// Prefixes returns the FIB's destination prefixes in sorted order.
func (f FIB) Prefixes() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(f))
	for p := range f {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

// Snapshot is the result of simulating a configuration set: the derived
// network view and every router's FIB.
//
// FIBs, and the Routes they hold, are read-only. A later simulation of
// the same Net is a delta over this one: it shares every FIB it does not
// need to change, and every Route of a prefix no FilterDiff marked since,
// so an edit made through one Snapshot would surface in the next.
type Snapshot struct {
	Net  *Net
	FIBs map[string]FIB
	// OSPFDist is the SPF distance view between routers of the same OSPF
	// domain, with dense rows computed on demand per destination. ConfMask
	// reads it as min_cost(r, r′) when assigning fake-link costs (the
	// link-state SFE condition); nil for networks without OSPF speakers
	// (Dist is nil-safe).
	OSPFDist *DistMatrix

	// workers is the Parallelism the Snapshot was simulated with; it also
	// sizes the worker pool for destination-sharded data-plane extraction.
	workers int
	// destEngines caches one path-enumeration engine per destination host
	// (nil entries mark unknown destinations). FIBs are immutable once
	// simulated, so the cache is valid for the Snapshot's whole lifetime.
	destMu      sync.Mutex
	destEngines map[string]*destEngine
	// devNames/devIdx is the dense device index shared by all engines.
	devOnce  sync.Once
	devNames []string
	devIdx   map[string]int32
	// whatIfRetraced / whatIfReused count how what-if traces were served:
	// by re-walking a failure-pruned graph vs. reusing the cached
	// no-failure result. See WhatIfStats.
	whatIfRetraced atomic.Int64
	whatIfReused   atomic.Int64
}

// FIB returns the FIB of a device (nil when absent).
func (s *Snapshot) FIB(dev string) FIB { return s.FIBs[dev] }

// NextHopRouters returns the next-hop device names for dest prefix p at
// router r, in sorted order; nil when the router has no route.
func (s *Snapshot) NextHopRouters(r string, p netip.Prefix) []string {
	f := s.FIBs[r]
	if f == nil {
		return nil
	}
	rt := f[p]
	if rt == nil {
		return nil
	}
	out := make([]string, 0, len(rt.NextHops))
	for _, nh := range rt.NextHops {
		out = append(out, nh.Device)
	}
	sort.Strings(out)
	return out
}
