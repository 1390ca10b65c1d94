package sim

import (
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// This file is the per-destination data-plane engine. For a fixed
// destination, every device's forwarding choice is a single FIB lookup, so
// the devices form a successor graph toward that destination. The engine
// answers two kinds of question over that graph:
//
//   - Path listings and their fingerprints (TraceFrom, TraceUnderFailure,
//     the data-plane extractions and PairDigestsFor). walk, below, is the
//     one copy of the forwarding semantics: ECMP branch order, the
//     maxTracePaths cap, the maxTraceDepth bound and the Delivered /
//     Looped / BlackHoled classification. sortPathsByKey puts its output in
//     canonical order. Each source's sorted list is cached on the engine,
//     so a source is walked at most once per destination. The tests pin
//     the walker against a naive reimplementation on the evaluation
//     networks, on randomized topologies with injected loops and black
//     holes, and across the path cap.
//   - Reachability (DeliveredFrom). It is not a walk: one reverse traversal
//     of the successor graph answers every source, with no cap.
//
// Devices are addressed by dense index (the Snapshot's shared device
// table) rather than name, so deriving a destination's graph costs one
// route lookup and one successor slice per device.

// nodeKind classifies a device in one destination's successor graph.
type nodeKind int8

const (
	// transitNode forwards toward the destination via succ.
	transitNode nodeKind = iota
	// deliveredNode is the destination itself.
	deliveredNode
	// blackholeNode has no route to the destination (including the
	// Null0 discard pseudo-device and devices outside the network).
	blackholeNode
)

// destNode is one device's state in a destination's successor graph.
type destNode struct {
	kind nodeKind
	// succ is the ordered next-hop index list — rt.NextHops order, the
	// order the walker branches in.
	succ []int32
}

// DeliveredFrom reports, for each source, whether dst is reachable from it
// in dst's successor graph: whether some forwarding path from the source
// is delivered. No path cap or depth bound applies; those limit only the
// path listings (TraceFrom and its kin). Element i answers for srcs[i].
// One reverse walk from the destination answers every source, and a
// source the network does not configure answers false. Unknown
// destinations yield all-false, like TraceFrom's nil result.
func (s *Snapshot) DeliveredFrom(dst string, srcs []string) []bool {
	out := make([]bool, len(srcs))
	e := s.engineFor(dst)
	if e == nil {
		return out
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.build()
	}
	reach := e.reaching()
	for i, src := range srcs {
		if j, ok := e.idxOf[src]; ok {
			out[i] = reach[j]
		}
	}
	return out
}

// reaching marks every node from which the destination is reachable: a
// walk from the delivered node over the reversed succ edges, held in CSR
// form (node x's predecessors are pred[start[x]:start[x+1]]). Callers
// hold mu, with the engine built.
func (e *destEngine) reaching() []bool {
	n := len(e.nodes)
	start := make([]int32, n+1)
	for i := range e.nodes {
		for _, s := range e.nodes[i].succ {
			start[s+1]++
		}
	}
	for x := 0; x < n; x++ {
		start[x+1] += start[x]
	}
	pred := make([]int32, start[n])
	fill := slices.Clone(start[:n])
	for i := range e.nodes {
		for _, s := range e.nodes[i].succ {
			pred[fill[s]] = int32(i)
			fill[s]++
		}
	}
	reach := make([]bool, n)
	d := e.idxOf[e.dst]
	reach[d] = true
	stack := []int32{d}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[start[x]:start[x+1]] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	return reach
}

// srcResult is a finished per-source trace: canonically sorted paths plus
// the fingerprint EqualOver-style comparisons use.
type srcResult struct {
	paths []Path
	fp    Digest
}

// destEngine holds one destination's successor graph and finished
// per-source results. All lazy state is guarded by mu so concurrent
// TraceFrom calls on the same destination are safe; distinct destinations
// never share an engine.
type destEngine struct {
	snap    *Snapshot
	dst     string
	dstPfx  netip.Prefix
	dstAddr netip.Addr

	mu    sync.Mutex
	built bool
	// dstCol is the destination prefix's route column and covers the
	// columns of the other table prefixes containing dstAddr, longest
	// first: together they resolve each device's longest-prefix match
	// (see routeToward).
	dstCol []*Route
	covers [][]*Route
	// nameAt/idxOf map between device names and node indices. idxOf is
	// the Snapshot's shared (read-only) table covering configured
	// devices; out-of-config devices reached as successors or trace
	// starts (e.g. the Null0 discard device) get engine-local indices in
	// extra and append to nameAt/nodes.
	nameAt []string
	idxOf  map[string]int32
	extra  map[string]int32
	nodes  []destNode
	bySrc  map[string]srcResult
	// failRes caches finished what-if traces per (failure, src); see
	// whatif.go.
	failRes map[string]srcResult
}

// Devices returns every configured device name in the Snapshot's dense
// device-table order. The slice is shared with the data-plane engines:
// callers must treat it as read-only.
func (s *Snapshot) Devices() []string { return s.tab.devices }

// HasDevice reports whether name is a configured device of the network.
func (s *Snapshot) HasDevice(name string) bool {
	_, ok := s.tab.devIdx[name]
	return ok
}

// Hosts returns the network's host device names in sorted order.
func (s *Snapshot) Hosts() []string { return s.Net.Cfg.Hosts() }

// engineFor returns the Snapshot's cached engine for dst, creating it on
// first use; nil when dst is not a known host. The engine's graph is
// derived lazily on the first trace, so creating engines is cheap and the
// graph is built on the worker that owns the destination.
func (s *Snapshot) engineFor(dst string) *destEngine {
	s.destMu.Lock()
	defer s.destMu.Unlock()
	if s.destEngines == nil {
		s.destEngines = make(map[string]*destEngine)
	}
	e, ok := s.destEngines[dst]
	if !ok {
		if pfx, known := s.Net.HostPrefix[dst]; known {
			e = &destEngine{snap: s, dst: dst, dstPfx: pfx, dstAddr: hostAddr(s.Net, dst)}
		}
		s.destEngines[dst] = e // nil for unknown destinations, cached too
	}
	return e
}

// transientEngineFor builds an engine for dst without registering it in
// the Snapshot's cache: PairDigestsFor and DiffForwarding create one
// engine per destination and drop it as soon as that destination is
// done, so its successor graph is reclaimed instead of accumulating one
// retained engine per host. Returns nil when dst is not a known host, like
// engineFor.
func (s *Snapshot) transientEngineFor(dst string) *destEngine {
	pfx, known := s.Net.HostPrefix[dst]
	if !known {
		return nil
	}
	return &destEngine{snap: s, dst: dst, dstPfx: pfx, dstAddr: hostAddr(s.Net, dst)}
}

// traceWorkers resolves the worker-pool size for destination-sharded
// extraction: the Parallelism the Snapshot was simulated with, or
// GOMAXPROCS for Snapshots assembled without options.
func (s *Snapshot) traceWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// pathsFor returns the canonical path set and fingerprint from src toward
// the engine's destination: walked and sorted at most once per source,
// then served from bySrc.
func (e *destEngine) pathsFor(src string) ([]Path, Digest) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pathsForLocked(src)
}

// pathsForLocked is pathsFor for callers already holding mu.
func (e *destEngine) pathsForLocked(src string) ([]Path, Digest) {
	if r, ok := e.bySrc[src]; ok {
		return r.paths, r.fp
	}
	if !e.built {
		e.build()
	}
	ps, fp := sortPathsByKey(e.walk(e.indexOf(src), Failure{}))
	if e.bySrc == nil {
		e.bySrc = make(map[string]srcResult)
	}
	e.bySrc[src] = srcResult{paths: ps, fp: fp}
	return ps, fp
}

// digestFor returns only the fingerprint of the canonical path set from
// src. A source pathsFor already answered reads its cached fingerprint;
// any other is walked and sorted without caching, since digest-only
// extraction queries each source once per destination and transient
// engines must stay transient. A nil engine (unknown destination) yields
// the zero digest of the empty path set, like TraceFrom's nil.
func (e *destEngine) digestFor(src string) Digest {
	if e == nil {
		return Digest{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.bySrc[src]; ok {
		return r.fp
	}
	if !e.built {
		e.build()
	}
	_, fp := sortPathsByKey(e.walk(e.indexOf(src), Failure{}))
	return fp
}

// lpmColumns picks the columns the engine resolves each device's route
// toward the destination from: the destination prefix's own, and those of
// every other table prefix containing the destination address, longest
// first (table order among equal lengths). Callers hold mu.
func (e *destEngine) lpmColumns() {
	tab := e.snap.tab
	e.dstCol = e.snap.cols[tab.index(e.dstPfx)]
	var pis []int
	for pi, p := range tab.prefixes {
		if p != e.dstPfx && p.Contains(e.dstAddr) {
			pis = append(pis, pi)
		}
	}
	sort.SliceStable(pis, func(a, b int) bool { return tab.prefixes[pis[a]].Bits() > tab.prefixes[pis[b]].Bits() })
	e.covers = make([][]*Route, len(pis))
	for k, pi := range pis {
		e.covers[k] = e.snap.cols[pi]
	}
}

// routeToward returns device i's longest-prefix-match route toward the
// destination: an exact hit on the destination prefix (host LANs are the
// most specific prefixes in the model), else the longest covering prefix
// the device has a route for — the FIB.Lookup result, without scanning a
// FIB.
func (e *destEngine) routeToward(i int32) *Route {
	if rt := e.dstCol[i]; rt != nil {
		return rt
	}
	for _, col := range e.covers {
		if rt := col[i]; rt != nil {
			return rt
		}
	}
	return nil
}

// classify derives a configured device's node kind and successor names.
func (e *destEngine) classify(i int32) (nodeKind, []NextHop) {
	if e.nameAt[i] == e.dst {
		return deliveredNode, nil
	}
	rt := e.routeToward(i)
	if rt == nil || len(rt.NextHops) == 0 {
		return blackholeNode, nil
	}
	return transitNode, rt.NextHops
}

// indexOf returns (allocating on demand) the node index for a device,
// including devices outside the configured set — the walker treats those
// as black holes: they have no routes. Callers hold mu; any held
// *destNode pointer is invalid afterwards.
func (e *destEngine) indexOf(dev string) int32 {
	if i, ok := e.idxOf[dev]; ok {
		return i
	}
	if i, ok := e.extra[dev]; ok {
		return i
	}
	i := int32(len(e.nodes))
	e.nodes = append(e.nodes, destNode{kind: blackholeNode})
	e.nameAt = append(e.nameAt, dev)
	if e.extra == nil {
		e.extra = make(map[string]int32)
	}
	e.extra[dev] = i
	return i
}

// build derives the successor graph over every configured device. Callers
// hold mu.
func (e *destEngine) build() {
	e.built = true
	names := e.snap.tab.devices
	e.idxOf = e.snap.tab.devIdx
	e.lpmColumns()
	e.nameAt = append(make([]string, 0, len(names)+1), names...)
	e.nodes = make([]destNode, len(names), len(names)+1)
	nhLists := make([][]NextHop, len(names))
	for i := range names {
		e.nodes[i].kind, nhLists[i] = e.classify(int32(i))
	}
	for i, nhs := range nhLists {
		if len(nhs) == 0 {
			continue
		}
		succ := make([]int32, len(nhs))
		for k, nh := range nhs {
			// indexOf appends out-of-config successors (the Null0
			// discard device) as terminal black holes.
			succ[k] = e.indexOf(nh.Device)
		}
		e.nodes[i].succ = succ
	}
}

// walker is the state of one walk; see walk.
type walker struct {
	e       *destEngine
	f       Failure
	onStack []bool
	hops    []int32
	out     []Path
}

// walk returns the forwarding paths from start under failure f (zero:
// none), in DFS order. It is the engine's one copy of the forwarding
// semantics:
//
//   - successors are explored depth-first in next-hop (succ) order, minus
//     the transitions f prunes;
//   - revisiting a node on the current walk, or exceeding maxTraceDepth
//     hops, emits Looped;
//   - a node with no route, or whose every successor f prunes, emits
//     BlackHoled; a failed start emits the single path [start] BlackHoled;
//   - only the first maxTracePaths paths in DFS order are emitted.
//
// Callers hold mu.
func (e *destEngine) walk(start int32, f Failure) []Path {
	if f.Node != "" && e.nameAt[start] == f.Node {
		return []Path{{Hops: []string{e.nameAt[start]}, Status: BlackHoled}}
	}
	w := walker{e: e, f: f, onStack: make([]bool, len(e.nodes))}
	w.visit(start)
	return w.out
}

func (w *walker) visit(cur int32) {
	if len(w.out) >= maxTracePaths {
		return
	}
	e := w.e
	w.hops = append(w.hops, cur)
	n := &e.nodes[cur]
	switch {
	case n.kind == deliveredNode:
		w.emit(Delivered)
	case w.onStack[cur] || len(w.hops) > maxTraceDepth:
		w.emit(Looped)
	case n.kind == blackholeNode:
		w.emit(BlackHoled)
	default:
		w.onStack[cur] = true
		live := false
		for _, s := range n.succ {
			if !w.f.IsZero() && w.f.prunes(e.nameAt[cur], e.nameAt[s]) {
				continue
			}
			live = true
			w.visit(s)
		}
		w.onStack[cur] = false
		if !live {
			w.emit(BlackHoled)
		}
	}
	w.hops = w.hops[:len(w.hops)-1]
}

// emit materializes the hop stack as one path with status st.
func (w *walker) emit(st PathStatus) {
	hops := make([]string, len(w.hops))
	for k, i := range w.hops {
		hops[k] = w.e.nameAt[i]
	}
	w.out = append(w.out, Path{Hops: hops, Status: st})
}

// sortPathsByKey orders paths canonically, deriving each Key exactly
// once, and returns the 128-bit canonical fingerprint alongside. The
// sorted keys are hashed through one exactly-sized transient buffer
// instead of being joined into a retained string. The input slice is not
// reordered: pairDigest passes the path slices a DataPlane shares with its
// caller.
func sortPathsByKey(ps []Path) ([]Path, Digest) {
	if len(ps) == 0 {
		return ps, Digest{}
	}
	keys := make([]string, len(ps))
	idx := make([]int, len(ps))
	size := len(ps) - 1
	for i, p := range ps {
		keys[i] = p.Key()
		idx[i] = i
		size += len(keys[i])
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]Path, len(ps))
	buf := make([]byte, 0, size)
	for i, j := range idx {
		sorted[i] = ps[j]
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, keys[j]...)
	}
	return sorted, digestOfBytes(buf)
}
