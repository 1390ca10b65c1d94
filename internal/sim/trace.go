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

// TraceFrom walks the FIBs from start (any device, host or router) toward
// host dst and returns every forwarding path (ECMP branches explored
// exhaustively up to maxTracePaths), in canonical sorted order.
//
// The walk is served by the Snapshot's per-destination engine (see
// dataplane.go), which reads dst's successor graph from the route columns
// and caches each source's sorted path list, so a repeated trace of the
// same pair is not walked again. Returned paths are cached: callers must treat them as
// read-only.
func (s *Snapshot) TraceFrom(start, dst string) []Path {
	e := s.engineFor(dst)
	if e == nil {
		return nil
	}
	return e.pathsFor(start)
}

// Pair identifies an ordered host pair.
type Pair struct{ Src, Dst string }

// sortPairs orders pairs by source, then destination.
func sortPairs(ps []Pair) {
	slices.SortFunc(ps, func(a, b Pair) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
	})
}
