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
			if !f.IsZero() && f.prunes(cur, nh.Device) {
				continue
			}
			live++
			walk(nh.Device, hops, seen)
		}
		if live == 0 {
			out = append(out, Path{Hops: append([]string(nil), hops...), Status: BlackHoled})
		}
	}
	walk(start, nil, make(map[string]bool))
	out, _ = sortPathsByKey(out)
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

// setRoute replaces device dev's route to prefix p (nil deletes it): the
// one way tests corrupt FIBs. Columns are shared with the Net's remembered
// result and its other Snapshots, so the write goes into clones of the
// column set and of p's column; only s sees it.
func setRoute(s *Snapshot, dev string, p netip.Prefix, rt *Route) {
	di, ok := s.tab.devIdx[dev]
	if !ok {
		panic("setRoute: unknown device " + dev)
	}
	pi := s.tab.index(p)
	cols := slices.Clone(s.cols)
	cols[pi] = slices.Clone(cols[pi])
	cols[pi][di] = rt
	s.cols = cols
}
