package sim

import (
	"cmp"
	"net/netip"
	"slices"
	"strings"
)

// PathStatus classifies the outcome of a forwarding walk.
type PathStatus int

const (
	// Delivered means the packet reached the destination host.
	Delivered PathStatus = iota
	// Looped means the walk revisited a device (a forwarding loop).
	Looped
	// BlackHoled means a device had no route to the destination.
	BlackHoled
)

func (s PathStatus) String() string {
	switch s {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case BlackHoled:
		return "blackholed"
	default:
		return "unknown"
	}
}

// Path is one forwarding path: the device sequence from source host toward
// the destination, plus the walk outcome.
type Path struct {
	Hops   []string
	Status PathStatus
}

// Key returns a canonical string for set comparisons.
func (p Path) Key() string {
	return p.Status.String() + ":" + strings.Join(p.Hops, ">")
}

// maxTraceDepth bounds a single walk; maxTracePaths bounds the ECMP
// fan-out collected per host pair.
const (
	maxTraceDepth = 64
	maxTracePaths = 256
)

// TraceFrom walks the FIBs from start (any device, host or router) toward
// host dst and returns every forwarding path (ECMP branches explored
// exhaustively up to maxTracePaths), in canonical sorted order.
//
// The walk is served by the Snapshot's per-destination engine (see
// dataplane.go), which derives dst's successor graph once and caches each
// source's sorted path list, so a repeated trace of the same pair is not
// walked again. Returned paths are cached: callers must treat them as
// read-only.
func (s *Snapshot) TraceFrom(start, dst string) []Path {
	e := s.engineFor(dst)
	if e == nil {
		return nil
	}
	ps, _ := e.pathsFor(start)
	return ps
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

// Pair identifies an ordered host pair.
type Pair struct{ Src, Dst string }

// DataPlane is the collection of all host-to-host routing paths — the DP of
// the paper's formalization. Path slices are shared with the Snapshot's
// per-destination caches: treat them as read-only.
type DataPlane struct {
	Pairs map[Pair][]Path
	// digests holds each pair's canonical path-set fingerprint (see
	// Digest), filled at extraction straight from the per-destination
	// columns, so EqualOver/DiffPairs/ExactlyKeptFraction compare 16-byte
	// values instead of re-sorting. Nil for hand-assembled DataPlanes,
	// which fingerprint on demand with sortPathsByKey.
	digests *PairDigests
}

// pairDigest returns the pair's canonical path-set fingerprint.
func (dp *DataPlane) pairDigest(k Pair) Digest {
	if dp.digests != nil {
		if fp, ok := dp.digests.Digest(k.Src, k.Dst); ok {
			return fp
		}
	}
	_, fp := sortPathsByKey(dp.Pairs[k])
	return fp
}

// ExtractDataPlane traces every ordered pair of hosts in the network.
func (s *Snapshot) ExtractDataPlane() *DataPlane {
	return s.DataPlaneFor(s.Net.Cfg.Hosts())
}

// DataPlaneFor traces every ordered pair drawn from the given host list
// (used to restrict the anonymized network's DP to real hosts). The work
// is sharded by destination over the Snapshot's worker pool; results land
// in index-addressed slots, so the output is identical at any parallelism.
func (s *Snapshot) DataPlaneFor(hosts []string) *DataPlane {
	return s.DataPlaneForDirty(hosts, nil, nil)
}

// DataPlaneForDirty is DataPlaneFor carrying forward prior results: pairs
// whose destination the filter diff does not affect are copied from prev
// instead of re-traced. A nil diff (or nil prev) means everything is
// dirty; an empty diff reuses prev wholesale. Correctness rests on the
// per-destination FIB independence invariant documented in
// InvalidateFilters.
func (s *Snapshot) DataPlaneForDirty(hosts []string, prev *DataPlane, diff *FilterDiff) *DataPlane {
	pd := newPairDigests(hosts)
	// cols[j][i] holds the paths of Pair{hosts[i], hosts[j]}, laid out
	// like pd's digest columns.
	cols := make([][][]Path, len(hosts))
	forEachIndex(s.traceWorkers(), len(hosts), func(j int) {
		dst := hosts[j]
		paths, fps := make([][]Path, len(hosts)), pd.column(j)
		reuse := prev != nil && !diff.Affects(s.Net.HostPrefix[dst])
		var e *destEngine
		for i, src := range hosts {
			if src == dst {
				continue
			}
			k := Pair{Src: src, Dst: dst}
			if reuse {
				if ps, ok := prev.Pairs[k]; ok {
					paths[i], fps[i] = ps, prev.pairDigest(k)
					continue
				}
			}
			if e == nil {
				if e = s.engineFor(dst); e == nil {
					break // unknown destination: nil paths, like TraceFrom
				}
			}
			paths[i], fps[i] = e.pathsFor(src)
		}
		cols[j] = paths
	})
	dp := &DataPlane{Pairs: make(map[Pair][]Path, len(hosts)*len(hosts)), digests: pd}
	for j, dst := range hosts {
		for i, src := range hosts {
			if src != dst {
				dp.Pairs[Pair{Src: src, Dst: dst}] = cols[j][i]
			}
		}
	}
	return dp
}

// EqualOver reports whether two data planes agree on every ordered pair of
// the given hosts — the paper's route equivalence check.
func EqualOver(a, b *DataPlane, hosts []string) bool {
	return len(DiffPairs(a, b, hosts)) == 0
}

// DiffPairs returns the ordered pairs (drawn from hosts) whose path sets
// differ between two data planes, in sorted order.
func DiffPairs(a, b *DataPlane, hosts []string) []Pair {
	var out []Pair
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			k := Pair{Src: src, Dst: dst}
			if a.pairDigest(k) != b.pairDigest(k) {
				out = append(out, k)
			}
		}
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs by source, then destination.
func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
	})
}

// ExactlyKeptFraction returns the fraction of ordered host pairs whose path
// sets are preserved exactly — the paper's route utility metric P_U
// (Fig. 8).
func ExactlyKeptFraction(orig, anon *DataPlane, hosts []string) float64 {
	total := 0
	kept := 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			total++
			k := Pair{Src: src, Dst: dst}
			if orig.pairDigest(k) == anon.pairDigest(k) {
				kept++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(kept) / float64(total)
}

// Reachable reports whether at least one delivered path exists for the
// pair in the data plane.
func (dp *DataPlane) Reachable(src, dst string) bool {
	for _, p := range dp.Pairs[Pair{Src: src, Dst: dst}] {
		if p.Status == Delivered {
			return true
		}
	}
	return false
}

// Delivered returns only the delivered paths for a pair.
func (dp *DataPlane) Delivered(src, dst string) []Path {
	var out []Path
	for _, p := range dp.Pairs[Pair{Src: src, Dst: dst}] {
		if p.Status == Delivered {
			out = append(out, p)
		}
	}
	return out
}
