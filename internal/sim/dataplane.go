package sim

import (
	"cmp"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// This file is the per-destination data-plane engine. For a fixed
// destination, every device's forwarding choice is a single FIB lookup, so
// the devices form a successor graph toward that destination. The engine
// answers two kinds of question over that graph:
//
//   - Path listings and their fingerprints (TraceFrom, TraceUnderFailure,
//     PairDigestsFor and DiffForwarding's fallback). walk, below, is the
//     one copy of the forwarding semantics: ECMP branch order, the
//     maxTracePaths cap, the maxTraceDepth bound and the Delivered /
//     Looped / BlackHoled classification. It records hop indices; the
//     walker sorts them into canonical order and either names them (a
//     path listing) or hashes them (a fingerprint, with no path built).
//     Each source's sorted listing is cached on the engine, so a source
//     is walked at most once per destination. The tests pin the walker
//     against a naive reimplementation on the evaluation networks, on
//     randomized topologies with injected loops and black holes, and
//     across the path cap, and its order and fingerprints against
//     sortPathsByKey.
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
// destinations yield all-false, like TraceFrom's nil result. The call
// reuses dst's engine when a path listing already built it, and
// otherwise builds a transient one, as PairDigestsFor does: one call
// answers every source, so the Snapshot does not keep an engine per
// destination only to answer once.
func (s *Snapshot) DeliveredFrom(dst string, srcs []string) []bool {
	out := make([]bool, len(srcs))
	s.destMu.Lock()
	e, cached := s.destEngines[dst]
	s.destMu.Unlock()
	if !cached {
		e = s.transientEngineFor(dst)
	}
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
	w      walker
	// bySrc caches each source's canonically sorted paths.
	bySrc map[string][]Path
	// failRes caches finished what-if traces per (failure, src); see
	// whatif.go.
	failRes map[string][]Path
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
// work (PairDigestsFor, DiffForwarding): the Parallelism the Snapshot was
// simulated with, or GOMAXPROCS for Snapshots assembled without options.
func (s *Snapshot) traceWorkers() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// pathsFor returns the canonical path set from src toward the engine's
// destination: walked and sorted at most once per source, then served
// from bySrc.
func (e *destEngine) pathsFor(src string) []Path {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pathsForLocked(src)
}

// pathsForLocked is pathsFor for callers already holding mu.
func (e *destEngine) pathsForLocked(src string) []Path {
	if ps, ok := e.bySrc[src]; ok {
		return ps
	}
	if !e.built {
		e.build()
	}
	ps := e.trace(e.indexOf(src), Failure{})
	if e.bySrc == nil {
		e.bySrc = make(map[string][]Path)
	}
	e.bySrc[src] = ps
	return ps
}

// trace walks start under f and returns the canonical path list. Callers
// hold mu, with the engine built.
func (e *destEngine) trace(start int32, f Failure) []Path {
	w := e.walk(start, f)
	w.sort()
	return w.result()
}

// digestFor returns only the fingerprint of the canonical path set from
// src: walked, sorted and hashed from its hop indices without naming a
// hop or caching, since digest-only extraction queries each source once
// per destination and transient engines must stay transient. A nil
// engine (unknown destination) yields the zero digest of the empty path
// set, like TraceFrom's nil.
func (e *destEngine) digestFor(src string) Digest {
	if e == nil {
		return Digest{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built {
		e.build()
	}
	w := e.walk(e.indexOf(src), Failure{})
	w.sort()
	return w.digest()
}

// lpmColumns returns the columns that resolve each device's
// longest-prefix match toward address addr on the host prefix pfx:
// pfx's own, then those of every other table prefix containing addr,
// longest first (table order among equal lengths). See routeToward.
func (s *Snapshot) lpmColumns(pfx netip.Prefix, addr netip.Addr) [][]*Route {
	tab := s.tab
	var pis []int
	for pi, p := range tab.prefixes {
		if p != pfx && p.Contains(addr) {
			pis = append(pis, pi)
		}
	}
	sort.SliceStable(pis, func(a, b int) bool { return tab.prefixes[pis[a]].Bits() > tab.prefixes[pis[b]].Bits() })
	cols := make([][]*Route, 1, len(pis)+1)
	cols[0] = s.column(tab.index(pfx))
	for _, pi := range pis {
		cols = append(cols, s.column(int32(pi)))
	}
	return cols
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
	cols := e.snap.lpmColumns(e.dstPfx, e.dstAddr)
	e.dstCol, e.covers = cols[0], cols[1:]
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

// walkedPath is one path a walk emitted: its hops are the walker's
// hops[start:end], its outcome st.
type walkedPath struct {
	start, end int32
	st         PathStatus
}

// walker is the state and the output of one walk; see walk. Each engine
// keeps one and reuses its buffers from walk to walk, so a walk records
// hop indices only: result turns them into names, digest hashes them.
type walker struct {
	e       *destEngine
	f       Failure
	onStack []bool
	stack   []int32
	hops    []int32
	paths   []walkedPath
	key     []byte // digest's buffer
}

// walk walks the forwarding paths from start under failure f (zero:
// none), in DFS order, into the engine's walker, which it returns; the
// output stays valid until the next walk. It is the engine's one copy of
// the forwarding semantics:
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
func (e *destEngine) walk(start int32, f Failure) *walker {
	w := &e.w
	w.e, w.f = e, f
	w.stack, w.hops, w.paths = w.stack[:0], w.hops[:0], w.paths[:0]
	if f.Node != "" && e.nameAt[start] == f.Node {
		w.stack = append(w.stack, start)
		w.emit(BlackHoled)
		return w
	}
	if len(w.onStack) < len(e.nodes) {
		w.onStack = make([]bool, len(e.nodes))
	}
	w.visit(start)
	return w
}

func (w *walker) visit(cur int32) {
	if len(w.paths) >= maxTracePaths {
		return
	}
	e := w.e
	w.stack = append(w.stack, cur)
	n := &e.nodes[cur]
	switch {
	case n.kind == deliveredNode:
		w.emit(Delivered)
	case w.onStack[cur] || len(w.stack) > maxTraceDepth:
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
	w.stack = w.stack[:len(w.stack)-1]
}

// emit records the hop stack as one path with status st.
func (w *walker) emit(st PathStatus) {
	start := int32(len(w.hops))
	w.hops = append(w.hops, w.stack...)
	w.paths = append(w.paths, walkedPath{start: start, end: int32(len(w.hops)), st: st})
}

// sort puts the walked paths in canonical order: the byte order of their
// keys ("<status>:<h1>><h2>>…", see Path.Key), the order sortPathsByKey
// gives Paths, without building a key.
func (w *walker) sort() {
	names := w.e.nameAt
	slices.SortFunc(w.paths, func(a, b walkedPath) int {
		if c := strings.Compare(a.st.String(), b.st.String()); c != 0 {
			return c
		}
		return cmpJoined(names, w.hops[a.start:a.end], w.hops[b.start:b.end])
	})
}

// cmpJoined compares the names of hop list x joined by ">" with those of
// y, as byte strings. Where one name is a proper prefix of the other, the
// shorter one's key goes on with the separator or ends there, so "r1>…"
// sorts after "r10>…" although "r1" sorts before "r10".
func cmpJoined(names []string, x, y []int32) int {
	next := func(hops []int32, k int) int { // the byte after hop k's name
		if k+1 < len(hops) {
			return '>'
		}
		return -1 // the key ends
	}
	for k := 0; k < len(x) && k < len(y); k++ {
		a, b := names[x[k]], names[y[k]]
		if a == b {
			continue
		}
		m := min(len(a), len(b))
		if c := strings.Compare(a[:m], b[:m]); c != 0 {
			return c
		}
		var c int
		if len(a) < len(b) {
			c = cmp.Compare(next(x, k), int(b[m]))
		} else {
			c = cmp.Compare(int(a[m]), next(y, k))
		}
		if c != 0 {
			return c
		}
		// The longer name holds a '>' right there: compare the rest
		// as the strings it stands for.
		return strings.Compare(joinHops(names, x[k:]), joinHops(names, y[k:]))
	}
	return cmp.Compare(len(x), len(y))
}

// joinHops returns the names of hops joined by ">".
func joinHops(names []string, hops []int32) string {
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = names[h]
	}
	return strings.Join(parts, ">")
}

// result returns the walked paths, in their current order, as Paths
// whose hop names share one backing array.
func (w *walker) result() []Path {
	if len(w.paths) == 0 {
		return nil
	}
	names := make([]string, len(w.hops))
	for i, h := range w.hops {
		names[i] = w.e.nameAt[h]
	}
	out := make([]Path, len(w.paths))
	for i, p := range w.paths {
		out[i] = Path{Hops: names[p.start:p.end:p.end], Status: p.st}
	}
	return out
}

// digest returns the fingerprint of the sorted walk: the hash of its
// paths' keys joined by "\n", the bytes sortPathsByKey hashes, written
// into the walker's reused buffer.
func (w *walker) digest() Digest {
	buf := w.key[:0]
	for i, p := range w.paths {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, p.st.String()...)
		buf = append(buf, ':')
		for k, h := range w.hops[p.start:p.end] {
			if k > 0 {
				buf = append(buf, '>')
			}
			buf = append(buf, w.e.nameAt[h]...)
		}
	}
	w.key = buf
	return digestOfBytes(buf)
}

// sortPathsByKey orders paths canonically, deriving each Key exactly
// once, and returns the 128-bit canonical fingerprint alongside. It is
// the reference the walker's own sort and digest are tested against. The
// sorted keys are hashed through one exactly-sized transient buffer
// instead of being joined into a retained string. The input slice is not
// reordered: the tests pass the cached slices TraceFrom hands out.
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
