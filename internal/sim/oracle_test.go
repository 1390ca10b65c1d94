package sim

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
)

// traceNaive is the differential oracle for every engine entry point: the
// per-pair recursive walker over device names and FIB lookups, sharing no
// code with the engine's walker. A non-zero failure prunes transitions
// into a failed node or across a failed link, and a device left with no
// live next hop black-holes the walk there; a failed start yields the
// single path [start] black-holed.
func (s *Snapshot) traceNaive(start, dst string, f Failure) []Path {
	dstPfx, ok := s.Net.HostPrefix[dst]
	if !ok {
		return nil
	}
	if f.Node == start {
		return []Path{{Hops: []string{start}, Status: BlackHoled}}
	}
	dstAddr := hostAddr(s.Net, dst)
	var out []Path
	var walk func(cur string, hops []string, seen map[string]bool)
	walk = func(cur string, hops []string, seen map[string]bool) {
		if len(out) >= maxTracePaths {
			return
		}
		hops = append(hops, cur)
		if cur == dst {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Delivered})
			return
		}
		if seen[cur] {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		if len(hops) > maxTraceDepth {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: Looped})
			return
		}
		// Host LANs are the most specific prefixes in our model, so an
		// exact hit on the destination prefix IS the LPM result; the
		// linear scan of the device's FIB only runs for aggregated and
		// default routes.
		rt := s.Route(cur, dstPfx)
		if rt == nil {
			rt = s.FIB(cur).Lookup(dstAddr)
		}
		if rt == nil || len(rt.NextHops) == 0 {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: BlackHoled})
			return
		}
		seen[cur] = true
		defer delete(seen, cur)
		live := 0
		for _, nh := range rt.NextHops {
			next, _ := s.NextHopNames(nh)
			if !f.IsZero() && f.prunes(cur, next) {
				continue
			}
			live++
			walk(next, hops, seen)
		}
		if live == 0 {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: BlackHoled})
		}
	}
	walk(start, nil, make(map[string]bool))
	out, _ = sortPathsByKey(out)
	return out
}

// prunes is the oracle's failure rule, by name: whether the failure
// removes the transition cur→next. A failed node swallows every
// transition into it; a failed link removes the transitions between its
// endpoints in both directions.
func (f Failure) prunes(cur, next string) bool {
	if f.Node != "" {
		return next == f.Node
	}
	return (cur == f.LinkA && next == f.LinkB) || (cur == f.LinkB && next == f.LinkA)
}

// reachNaive is the reachability oracle for DeliveredFrom: a by-name DFS
// with a visited set over the same route reads as traceNaive (the exact
// destination prefix, else a FIB lookup), sharing no code with the
// engine. It reports whether some forwarding path from start reaches dst,
// with no path cap and no depth bound.
func (s *Snapshot) reachNaive(start, dst string) bool {
	dstPfx, ok := s.Net.HostPrefix[dst]
	if !ok {
		return false
	}
	dstAddr := hostAddr(s.Net, dst)
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == dst {
			return true
		}
		rt := s.Route(cur, dstPfx)
		if rt == nil {
			rt = s.FIB(cur).Lookup(dstAddr)
		}
		if rt == nil {
			continue
		}
		for _, nh := range rt.NextHops {
			if next, _ := s.NextHopNames(nh); !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// hostAddr returns the host's interface address.
func hostAddr(n *Net, host string) netip.Addr {
	d := n.Cfg.Device(host)
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() {
			return i.Addr.Addr()
		}
	}
	return netip.Addr{}
}

// tracedDiff is the reference pair diff: the ordered pairs drawn from
// hosts whose TraceFrom listings on a and b have different sortPathsByKey
// fingerprints, sorted by source, then destination.
func tracedDiff(a, b *Snapshot, hosts []string) []Pair {
	var out []Pair
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			_, fa := sortPathsByKey(a.TraceFrom(src, dst))
			_, fb := sortPathsByKey(b.TraceFrom(src, dst))
			if fa != fb {
				out = append(out, Pair{Src: src, Dst: dst})
			}
		}
	}
	sortPairs(out)
	return out
}

// pathSetKey is the fingerprint oracle: the canonical path-set key whose
// bytes every Digest hashes, built the slow way.
func pathSetKey(ps []Path) string {
	keys := make([]string, 0, len(ps))
	for _, p := range ps {
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// hopTo returns the next hop toward device dev (a configured device, or
// DiscardDevice) over interface iface, both resolved through s's tables:
// how tests hand-build routes.
func hopTo(s *Snapshot, dev, iface string) NextHop {
	ii, ok := s.tab.ifIdx[iface]
	if !ok {
		panic("hopTo: unknown interface " + iface)
	}
	if dev == DiscardDevice {
		return NextHop{Dev: DiscardDev, Iface: ii}
	}
	di, ok := s.tab.devIdx[dev]
	if !ok {
		panic("hopTo: unknown device " + dev)
	}
	return NextHop{Dev: di, Iface: ii}
}

// setRoute replaces device dev's route to prefix p (nil deletes it): the
// one way tests corrupt FIBs. Destination columns are shared with the
// Net's remembered result and its other Snapshots, so the write goes into
// clones of the column set and of p's column; only s sees it. Any other
// column is written the same way into s's on-read columns, computed
// first.
func setRoute(s *Snapshot, dev string, p netip.Prefix, rt *Route) {
	di, ok := s.tab.devIdx[dev]
	if !ok {
		panic("setRoute: unknown device " + dev)
	}
	pi := s.tab.index(p)
	set := &s.cols
	if !s.tab.dest[pi] {
		s.otherColumns()
		set = &s.others
	}
	cols := slices.Clone(*set)
	cols[pi] = slices.Clone(cols[pi])
	cols[pi][di] = rt
	*set = cols
}
