package sim

import (
	"fmt"
	"net/netip"
	"slices"
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

// DiscardDevice is the name of the pseudo next-hop device of a Null0
// discard route; traffic forwarded to it is dropped (it has no FIB),
// matching Null0 semantics. It is in no device table: a discard next
// hop's Dev is DiscardDev.
const DiscardDevice = "_null0_"

// DiscardDev is the Dev of a Null0 discard route's next hop, the
// DiscardDevice.
const DiscardDev int32 = -1

// NextHop is one forwarding choice of a FIB entry, as two indices into
// the tables of the Net that computed it: Dev is the next device's index
// in the device table (Snapshot.Devices), or DiscardDev, and Iface the
// outgoing interface's index in the Net-wide interface-name table. A
// NextHop holds no pointer, so route columns cost the garbage collector
// only their Route pointers. Snapshot.NextHopNames names one.
//
// A Net that BuildFrom seeds extends its seed's tables, so a next hop
// means the same in every Net of a lineage, and two next hops of one
// lineage are equal exactly when they name the same device and
// interface. Next hops of unrelated Snapshots are compared through a
// DeviceMap.
type NextHop struct {
	Dev   int32
	Iface int32
}

// Route is one FIB entry: the best route to Prefix after administrative-
// distance arbitration, possibly with multiple equal-cost next hops.
type Route struct {
	Prefix   netip.Prefix
	Source   Source
	Metric   int
	NextHops []NextHop
}

// sortNextHops orders next hops by device name, then interface name, and
// removes duplicates. It compares the table's precomputed name ranks, so
// the order is by name however the tables interned the names.
func (t *prefixTable) sortNextHops(nhs []NextHop) []NextHop {
	// Insertion sort: next-hop lists are ECMP-width (a handful of
	// entries), and the closure-free sort keeps the per-route cost out of
	// the allocator on the 10⁵–10⁶-route runs of the scale networks.
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && t.nextHopLess(nhs[j], nhs[j-1]); j-- {
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

func (t *prefixTable) nextHopLess(a, b NextHop) bool {
	if a.Dev != b.Dev {
		return t.devRank[a.Dev] < t.devRank[b.Dev]
	}
	return t.ifRank[a.Iface] < t.ifRank[b.Iface]
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
// network view and every device's FIB.
//
// The FIBs are stored column-major: one route column per prefix of the
// Net's prefix table (every interface subnet, static prefix and BGP
// network statement), indexed by the dense device table of Devices().
// Every question the pipeline asks is per destination — "device d toward
// prefix p" — and is answered by indexing a column (Route, and the
// data-plane engines) rather than by hashing into a per-device table; FIB
// assembles a per-device view on demand.
//
// Only the destination columns are computed by the simulation: the host
// LANs and the prefixes covering a host address, BGP network statements
// and discard statics' prefixes. Every other column (link subnets,
// loopbacks, non-discard statics) is computed once, on the first Route,
// FIB or NextHopRouters read that needs one, from what the simulation
// captured: the filter view it ran under and the converged RIP, EIGRP
// and BGP routes. Reads are safe from concurrent goroutines, and a
// Snapshot answers the same however its Net's configurations or filters
// have changed since it was simulated.
//
// Destination columns, and the Routes they hold, are read-only and shared
// by the Snapshots of one Net and of the Nets BuildFrom seeds from it: a
// later simulation is a delta over this one and reuses every destination
// column of a prefix no FilterDiff marked since, so an edit made through
// one Snapshot would surface in the next. The on-read columns are the
// Snapshot's own.
type Snapshot struct {
	Net *Net
	// OSPFDist is the SPF distance view between routers of the same OSPF
	// domain, with dense rows computed on demand per destination. ConfMask
	// reads it as min_cost(r, r′) when assigning fake-link costs (the
	// link-state SFE condition); nil for networks without OSPF speakers
	// (Dist is nil-safe).
	OSPFDist *DistMatrix

	// tab is the Net's prefix and device table; cols[pi][di] is device
	// di's route to prefix tab.prefixes[pi], nil when it has none, for
	// the destinations (tab.dest); cols[pi] is nil for every other
	// prefix. Read columns through column.
	tab  *prefixTable
	cols [][]*Route
	// ospfRows are the OSPF rows the destination columns were assembled
	// from, and filters the filter view they were simulated under: with
	// cols, what BuildFrom carries into a new Net.
	ospfRows [][]*Route
	filters  *filterState
	// converged holds the simulation's RIP, EIGRP and BGP results until
	// otherColumns, run once under otherOnce, has built the non-destination
	// columns into others and dropped it.
	otherOnce sync.Once
	converged *converged
	others    [][]*Route
	// workers is the Parallelism the Snapshot was simulated with; it also
	// sizes the worker pool for destination-sharded data-plane extraction.
	workers int
	// destEngines caches one path-enumeration engine per destination host
	// (nil entries mark unknown destinations). FIBs are immutable once
	// simulated, so the cache is valid for the Snapshot's whole lifetime.
	destMu      sync.Mutex
	destEngines map[string]*destEngine
	// whatIfRetraced / whatIfReused count how what-if traces were served:
	// by re-walking a failure-pruned graph vs. reusing the cached
	// no-failure result. See WhatIfStats.
	whatIfRetraced atomic.Int64
	whatIfReused   atomic.Int64
	// lastMap is mapTo's cache.
	lastMap atomic.Pointer[pairMap]
}

// Route returns device dev's FIB entry for exactly prefix p — no
// longest-prefix match — or nil when it has none. The Route is shared:
// read-only. A destination's entry is an index into its column; the
// first read of any other prefix computes the Snapshot's non-destination
// columns (see Snapshot).
func (s *Snapshot) Route(dev string, p netip.Prefix) *Route {
	di, okd := s.tab.devIdx[dev]
	pi, okp := s.tab.idx[p]
	if !okd || !okp {
		return nil
	}
	return s.column(pi)[di]
}

// FIB returns a device's FIB as a map, assembled from the columns on each
// call (nil when the device is absent): every prefix, so the first FIB
// call computes the Snapshot's non-destination columns (see Snapshot).
// The Routes are shared: read-only.
func (s *Snapshot) FIB(dev string) FIB {
	di, ok := s.tab.devIdx[dev]
	if !ok {
		return nil
	}
	fib := make(FIB)
	for pi, p := range s.tab.prefixes {
		if rt := s.column(int32(pi))[di]; rt != nil {
			fib[p] = rt
		}
	}
	return fib
}

// NextHopRouters returns the next-hop device names for dest prefix p at
// router r, in sorted order; nil when the router has no route. It reads
// the entry through Route.
func (s *Snapshot) NextHopRouters(r string, p netip.Prefix) []string {
	rt := s.Route(r, p)
	if rt == nil {
		return nil
	}
	out := make([]string, 0, len(rt.NextHops))
	for _, nh := range rt.NextHops {
		out = append(out, s.tab.deviceName(nh.Dev))
	}
	sort.Strings(out)
	return out
}

// NextHopNames returns the names of a next hop of one of the Snapshot's
// routes: its device (DiscardDevice for a discard route) and its
// outgoing interface.
func (s *Snapshot) NextHopNames(nh NextHop) (dev, iface string) {
	return s.tab.deviceName(nh.Dev), s.tab.ifaces[nh.Iface]
}

// DeviceMap translates the device indices of one Snapshot's table into
// another's. When one table extends the other, as a seeded Net's extends
// its seed's (BuildFrom), it is the identity on the devices both hold;
// otherwise it holds a by-name translation, built once.
type DeviceMap struct {
	// n bounds the identity when to is nil; to[d] is device d's index in
	// the other table, -1 where it has none.
	n  int32
	to []int32
}

// MapDevices returns the DeviceMap from from's device table into to's.
func MapDevices(from, to *Snapshot) DeviceMap {
	a, b := from.tab.devices, to.tab.devices
	n := min(len(a), len(b))
	if slices.Equal(a[:n], b[:n]) {
		return DeviceMap{n: int32(n)}
	}
	m := DeviceMap{to: make([]int32, len(a))}
	for i, name := range a {
		m.to[i] = -1
		if j, ok := to.tab.devIdx[name]; ok {
			m.to[i] = j
		}
	}
	return m
}

// mapTo returns MapDevices(s, o), built once per pair: s keeps the map of
// the last Snapshot it was asked for, so comparing many listings against
// one other Snapshot's, as pathdiff queries do, translates its table
// once.
func (s *Snapshot) mapTo(o *Snapshot) DeviceMap {
	if c := s.lastMap.Load(); c != nil && c.to == o {
		return c.m
	}
	c := &pairMap{to: o, m: MapDevices(s, o)}
	s.lastMap.Store(c)
	return c.m
}

// pairMap is a DeviceMap with the Snapshot it maps into.
type pairMap struct {
	to *Snapshot
	m  DeviceMap
}

// Map returns the index in the other table of device dev of this one,
// and whether the other table holds the device. DiscardDev maps to
// itself.
func (m DeviceMap) Map(dev int32) (int32, bool) {
	switch {
	case dev == DiscardDev:
		return DiscardDev, true
	case m.to == nil:
		return dev, dev < m.n
	default:
		j := m.to[dev]
		return j, j >= 0
	}
}

// identity reports whether the map translates no index.
func (m DeviceMap) identity() bool { return m.to == nil }
