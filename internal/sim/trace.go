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
	// delivered and looped count the paths of each outcome, so Counts
	// reads no path.
	delivered, looped int32
}

// Len returns the number of paths.
func (l Listing) Len() int { return len(l.paths) }

// Counts returns how many paths are delivered, looped and black-holed.
func (l Listing) Counts() (delivered, looped, blackholed int) {
	d, lo := int(l.delivered), int(l.looped)
	return d, lo, len(l.paths) - d - lo
}

// Status returns path i's outcome.
func (l Listing) Status(i int) PathStatus { return l.paths[i].st }

// Passes reports whether path i passes device dev: whether dev is one of
// its hops, its start and its end included.
func (l Listing) Passes(i int, dev string) bool {
	p := l.paths[i]
	n, ok := l.e.nodeOf(dev)
	return ok && slices.Contains(l.hops[p.start:p.end], n)
}

// DeliveredVia reports whether every delivered path passes the device of
// index dev in the Snapshot's device table (see Passes); true when no
// path is delivered.
func (l Listing) DeliveredVia(dev int32) bool {
	for _, p := range l.paths {
		if p.st == Delivered && !slices.Contains(l.hops[p.start:p.end], dev) {
			return false
		}
	}
	return true
}

// Equal reports whether l and o list the same paths: the same statuses
// and the same hop names, path for path. o may come from another engine
// or another Snapshot, whose device table numbers the devices (and so the
// discard node) differently. There a configured device is compared by
// index through the pair's DeviceMap (Snapshot.mapTo), the discard node
// by position, and a node the map cannot translate, such as an
// out-of-config start, by name.
func (l Listing) Equal(o Listing) bool {
	if len(l.paths) > 0 && len(o.paths) > 0 && &l.paths[0] == &o.paths[0] {
		return true // one cached listing, such as a reused what-if answer
	}
	// Hops are packed in path order, so equal spans mean equal lengths.
	if !slices.Equal(l.paths, o.paths) {
		return false
	}
	if l.e == o.e {
		return slices.Equal(l.hops, o.hops)
	}
	if len(l.hops) == 0 {
		return true
	}
	m := l.e.snap.mapTo(o.e.snap)
	for k, h := range l.hops {
		oh := o.hops[k]
		if h < l.e.ndev {
			if j, ok := m.Map(h); ok && j == oh {
				continue
			}
		} else if h == l.e.ndev && oh == o.e.ndev {
			continue
		}
		// Untranslated, or not the same node: the names decide.
		if l.e.nodeName(h) != o.e.nodeName(oh) {
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
	return s.ListUnderFailure(start, dst, Failure{})
}

// Device returns the index of device name in the Snapshot's device table
// (Devices), the Dev its routes' next hops name it by, and whether the
// network configures name.
func (s *Snapshot) Device(name string) (int32, bool) {
	i, ok := s.tab.devIdx[name]
	return i, ok
}

// Dest is a handle on one destination host's data-plane engine. Its
// listings start from a configured device given by its index (Device),
// so a caller that has resolved a query's names lists with no further
// lookup. The zero Dest stands for an unknown destination and lists no
// path.
type Dest struct{ e *destEngine }

// Dest returns the handle on host dst's engine, and whether dst is a host
// of the network.
func (s *Snapshot) Dest(dst string) (Dest, bool) {
	e := s.engineFor(dst)
	return Dest{e}, e != nil
}

// List is ListFrom toward d's destination from device dev, an index into
// the Snapshot's device table.
func (d Dest) List(dev int32) Listing { return d.ListUnderFailure(dev, Failure{}) }

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
