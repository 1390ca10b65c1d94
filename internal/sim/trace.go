package sim

import (
	"cmp"
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

// Listing is a canonical path listing read in place: the sorted walk a
// destination engine caches per source, as hop node indices (one flat
// slice, path after path) and per-path spans and statuses. It answers the
// questions verification asks of a listing without naming a hop; Paths
// names them. The zero Listing, with no path, answers an unknown
// destination. A Listing is immutable and safe for concurrent use.
type Listing struct {
	e     *destEngine
	hops  []int32
	paths []walkedPath // packed: path i's hops are hops[paths[i].start:paths[i].end]
}

// Len returns the number of paths.
func (l Listing) Len() int { return len(l.paths) }

// Status returns path i's outcome.
func (l Listing) Status(i int) PathStatus { return l.paths[i].st }

// Passes reports whether path i passes device dev: whether dev is one of
// its hops, its start and its end included.
func (l Listing) Passes(i int, dev string) bool {
	p := l.paths[i]
	n, ok := l.e.nodeOf(dev)
	return ok && slices.Contains(l.hops[p.start:p.end], n)
}

// Equal reports whether l and o list the same paths: the same statuses
// and the same hop names, path for path. o may come from another engine
// or another Snapshot, whose device table numbers the devices (and so the
// discard node) differently; there the hops are compared by name.
func (l Listing) Equal(o Listing) bool {
	// Hops are packed in path order, so equal spans mean equal lengths.
	if !slices.Equal(l.paths, o.paths) {
		return false
	}
	if l.e == o.e {
		return slices.Equal(l.hops, o.hops)
	}
	for k, h := range l.hops {
		if l.e.nodeName(h) != o.e.nodeName(o.hops[k]) {
			return false
		}
	}
	return true
}

// Paths names the listing: a fresh []Path in canonical order, whose hop
// names share one backing array; nil for the zero Listing.
func (l Listing) Paths() []Path {
	if len(l.paths) == 0 {
		return nil
	}
	names := make([]string, len(l.hops))
	for k, h := range l.hops {
		names[k] = l.e.nodeName(h)
	}
	out := make([]Path, len(l.paths))
	for i, p := range l.paths {
		out[i] = Path{Hops: names[p.start:p.end:p.end], Status: p.st}
	}
	return out
}

// ListFrom returns the canonical listing of every forwarding path from
// start (any device, host or router) toward host dst: ECMP branches
// explored exhaustively up to maxTracePaths. It is served by the
// Snapshot's per-destination engine (see dataplane.go), which reads dst's
// successor graph from the route columns and caches each source's
// listing, so a repeated pair is not walked again.
func (s *Snapshot) ListFrom(start, dst string) Listing {
	e := s.engineFor(dst)
	if e == nil {
		return Listing{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.listLocked(start)
}

// TraceFrom returns ListFrom's listing named: every forwarding path from
// start toward host dst, in canonical sorted order, nil for an unknown
// destination. Each call names the cached listing afresh, so the caller
// owns the slices.
func (s *Snapshot) TraceFrom(start, dst string) []Path {
	return s.ListFrom(start, dst).Paths()
}

// Pair identifies an ordered host pair.
type Pair struct{ Src, Dst string }

// sortPairs orders pairs by source, then destination.
func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
	})
}
