package sim

import (
	"cmp"
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
//   - Path listings and their fingerprints (ListFrom, ListUnderFailure,
//     PairDigestsFor and DiffForwarding's fallback). walk, below, is the
//     one copy of the forwarding semantics: ECMP branch order, the
//     maxTracePaths cap, the maxTraceDepth bound and the Delivered /
//     Looped / BlackHoled classification. It records hop indices; the
//     walker sorts them into canonical order and either packs them into
//     a Listing or hashes them (a fingerprint, with no path built). Each
//     source's Listing is cached on the engine, so a source is walked at
//     most once per destination; a hop is named only when TraceFrom or
//     TraceUnderFailure names a Listing. The tests pin the walker
//     against a naive reimplementation on the evaluation networks, on
//     randomized topologies with injected loops and black holes, and
//     across the path cap, and its order and fingerprints against
//     sortPathsByKey.
//   - Reachability (DeliveredFrom). It is not a walk: one reverse traversal
//     of the successor graph answers every source, with no cap.
//
// The graph is never built: its nodes are the Snapshot's device indices,
// and a node's successors are the next hops of its longest-prefix-match
// route (routeToward), which are device indices already, read in place.
// Beyond the devices come the discard node, which every DiscardDev next
// hop leads to, and the out-of-config devices a trace started from; both
// are black holes.

// nodeKind classifies a device in one destination's successor graph.
type nodeKind int8

const (
	// transitNode forwards toward the destination over its next hops.
	transitNode nodeKind = iota
	// deliveredNode is the destination itself.
	deliveredNode
	// blackholeNode has no route to the destination (including the
	// Null0 discard pseudo-device and devices outside the network).
	blackholeNode
)

// DeliveredFrom reports, for each source, whether dst is reachable from it
// in dst's successor graph: whether some forwarding path from the source
// is delivered. No path cap or depth bound applies; those limit only the
// path listings (TraceFrom and its kin). Element i answers for srcs[i].
// One reverse walk from the destination answers every source, and a
// source the network does not configure answers false. Unknown
// destinations yield all-false, like TraceFrom's nil result. The call
// reuses dst's engine when a path listing already created it, and
// otherwise uses a transient one, as PairDigestsFor does: one call
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
	e.lock()
	defer e.mu.Unlock()
	reach := e.reaching()
	for i, src := range srcs {
		if j, ok := s.tab.devIdx[src]; ok {
			out[i] = reach[j]
		}
	}
	return out
}

// reaching marks every device (and the discard node) from which the
// destination is reachable: a walk from the delivered node over the
// reversed next-hop edges, held in CSR form (node x's predecessors are
// pred[start[x]:start[x+1]]). Callers hold mu, with the engine built.
func (e *destEngine) reaching() []bool {
	n := int(e.ndev) + 1
	start := make([]int32, n+1)
	for i := int32(0); i < e.ndev; i++ {
		_, nhs := e.hops(i)
		for _, nh := range nhs {
			start[e.node(nh)+1]++
		}
	}
	for x := 0; x < n; x++ {
		start[x+1] += start[x]
	}
	pred := make([]int32, start[n])
	fill := slices.Clone(start[:n])
	for i := int32(0); i < e.ndev; i++ {
		_, nhs := e.hops(i)
		for _, nh := range nhs {
			s := e.node(nh)
			pred[fill[s]] = i
			fill[s]++
		}
	}
	reach := make([]bool, n)
	reach[e.dstIdx] = true
	stack := []int32{e.dstIdx}
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

// destEngine reads one destination's successor graph from the
// Snapshot's columns and holds its finished per-source results. All lazy
// state is guarded by mu so concurrent TraceFrom calls on the same
// destination are safe; distinct destinations never share an engine.
type destEngine struct {
	snap *Snapshot
	dst  string

	mu    sync.Mutex
	built bool
	// dstCol is the destination prefix's route column and covers the
	// columns of the other table prefixes containing the destination's
	// address, longest first: together they resolve each device's
	// longest-prefix match (see routeToward).
	dstCol []*Route
	covers [][]*Route
	// Nodes 0 … ndev-1 are the Snapshot's devices, dstIdx among them;
	// node ndev is the discard node; the nodes after it are the
	// out-of-config devices traces started from, named by extra and
	// indexed by extraIdx.
	ndev     int32
	dstIdx   int32
	extra    []string
	extraIdx map[string]int32
	w        walker
	// lists holds every listing the engine walked. bySrc[n] is one more
	// than the index there of node n's listing (0: not walked yet), and
	// failRes holds each what-if answer per (failure, source) as an
	// index there: a retraced listing's own, or for a reuse the unfailed
	// listing's (see whatif.go).
	lists   []Listing
	bySrc   []int32
	failRes map[failKey]int32
	// seen and todo are failureReaches' buffers.
	seen []bool
	todo []int32
}

// Devices returns every configured device name in the Snapshot's dense
// device-table order, the order NextHop.Dev indexes: name order for a
// Net from Build, lineage order for one BuildFrom seeded (the seed's
// devices first, at their indices, then the new ones in name order). The
// slice is shared with the data-plane engines: callers must treat it as
// read-only.
func (s *Snapshot) Devices() []string { return s.tab.devices }

// HasDevice reports whether name is a configured device of the network.
func (s *Snapshot) HasDevice(name string) bool {
	_, ok := s.tab.devIdx[name]
	return ok
}

// Hosts returns the network's host device names in sorted order.
func (s *Snapshot) Hosts() []string { return s.Net.Cfg.Hosts() }

// engineFor returns the Snapshot's cached engine for dst, creating it on
// first use; nil when dst is not a known host. The engine reads its
// columns lazily, on the first trace, so creating engines is cheap. Only
// hosts get an entry, so names a caller merely asks about (a query's
// misspelt destination) do not accumulate in the cache.
func (s *Snapshot) engineFor(dst string) *destEngine {
	s.destMu.Lock()
	defer s.destMu.Unlock()
	if e, ok := s.destEngines[dst]; ok {
		return e
	}
	e := s.transientEngineFor(dst)
	if e != nil {
		if s.destEngines == nil {
			s.destEngines = make(map[string]*destEngine)
		}
		s.destEngines[dst] = e
	}
	return e
}

// transientEngineFor creates an engine for dst without registering it in
// the Snapshot's cache: PairDigestsFor and DiffForwarding create one
// engine per destination and drop it as soon as that destination is
// done, so its walk buffers are reclaimed instead of accumulating one
// retained engine per host. Returns nil when dst is not a known host, like
// engineFor.
func (s *Snapshot) transientEngineFor(dst string) *destEngine {
	if _, known := s.Net.HostPrefix[dst]; !known {
		return nil
	}
	return &destEngine{snap: s, dst: dst}
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

// lock takes mu, building the engine on first use; callers unlock mu.
func (e *destEngine) lock() {
	e.mu.Lock()
	if !e.built {
		e.build()
	}
}

// listAt returns the index in lists of node i's canonical listing, walked
// and sorted at most once per node. Callers hold mu, with the engine
// built.
func (e *destEngine) listAt(i int32) int32 {
	if n := e.size(); len(e.bySrc) < n {
		e.bySrc = append(e.bySrc, make([]int32, n-len(e.bySrc))...)
	}
	if at := e.bySrc[i]; at > 0 {
		return at - 1
	}
	e.lists = append(e.lists, e.list(i, noFailure))
	e.bySrc[i] = int32(len(e.lists))
	return e.bySrc[i] - 1
}

// list walks start under f and returns the sorted walk as a Listing.
// Callers hold mu, with the engine built.
func (e *destEngine) list(start int32, f failNodes) Listing {
	w := e.walk(start, f)
	w.sort()
	return w.listing()
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
	e.lock()
	defer e.mu.Unlock()
	w := e.walk(e.indexOf(src), noFailure)
	w.sort()
	return w.digest()
}

// lpmChain returns the table indices of host dst's longest-prefix-match
// chain (see prefixTable.lpm); nil when dst is not a known host.
func (s *Snapshot) lpmChain(dst string) []int32 {
	if _, known := s.Net.HostPrefix[dst]; !known {
		return nil
	}
	return s.tab.lpm[s.tab.devIdx[dst]]
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

// hops returns node i's kind and, for a transit node, the next hops it
// forwards on: its routeToward route's, read in place.
func (e *destEngine) hops(i int32) (nodeKind, []NextHop) {
	switch {
	case i == e.dstIdx:
		return deliveredNode, nil
	case i >= e.ndev:
		return blackholeNode, nil
	}
	rt := e.routeToward(i)
	if rt == nil || len(rt.NextHops) == 0 {
		return blackholeNode, nil
	}
	return transitNode, rt.NextHops
}

// node returns the node a next hop leads to.
func (e *destEngine) node(nh NextHop) int32 {
	if nh.Dev == DiscardDev {
		return e.ndev
	}
	return nh.Dev
}

// name returns node i's device name. Callers hold mu.
func (e *destEngine) name(i int32) string {
	switch {
	case i < e.ndev:
		return e.snap.tab.devices[i]
	case i == e.ndev:
		return DiscardDevice
	default:
		return e.extra[i-e.ndev-1]
	}
}

// nodeName is name for callers not holding mu, such as a Listing's
// methods: an out-of-config start's name is read under mu, since indexOf
// may be appending to extra.
func (e *destEngine) nodeName(i int32) string {
	if i <= e.ndev {
		return e.name(i)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.name(i)
}

// nodeOf returns the node named dev, if the engine has one, for callers
// not holding mu; out-of-config devices are looked up under mu.
func (e *destEngine) nodeOf(dev string) (int32, bool) {
	if i, ok := e.configured(dev); ok {
		return i, true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.extraIdx[dev]
	return i, ok
}

// configured returns the node of a configured device or of the discard
// node, which need no lock: neither changes once the engine is built.
func (e *destEngine) configured(dev string) (int32, bool) {
	if i, ok := e.snap.tab.devIdx[dev]; ok {
		return i, true
	}
	return e.ndev, dev == DiscardDevice
}

// size returns the number of nodes.
func (e *destEngine) size() int { return int(e.ndev) + 1 + len(e.extra) }

// indexOf returns the node of a trace's start device or a failed device,
// registering a device outside the configured set as a new node, which
// the walker treats as a black hole: it has no routes, and no transition
// leads to it. Callers hold mu, with the engine built.
func (e *destEngine) indexOf(dev string) int32 {
	if i, ok := e.configured(dev); ok {
		return i
	}
	if i, ok := e.extraIdx[dev]; ok {
		return i
	}
	i := int32(e.size())
	e.extra = append(e.extra, dev)
	if e.extraIdx == nil {
		e.extraIdx = make(map[string]int32)
	}
	e.extraIdx[dev] = i
	return i
}

// build resolves the destination's node and the columns routeToward
// reads. Callers hold mu.
func (e *destEngine) build() {
	e.built = true
	tab := e.snap.tab
	e.ndev = int32(len(tab.devices))
	e.dstIdx = tab.devIdx[e.dst]
	chain := tab.lpm[e.dstIdx]
	e.dstCol = e.snap.column(chain[0])
	e.covers = make([][]*Route, len(chain)-1)
	for k, pi := range chain[1:] {
		e.covers[k] = e.snap.column(pi)
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
// hop indices only: listing copies them out, digest hashes them.
type walker struct {
	e       *destEngine
	f       failNodes
	onStack []bool
	stack   []int32
	hops    []int32
	paths   []walkedPath
	key     []byte // digest's buffer
}

// walk walks the forwarding paths from start under failure f
// (noFailure: none), in DFS order, into the engine's walker, which it
// returns; the output stays valid until the next walk. It is the
// engine's one copy of the forwarding semantics:
//
//   - successors are explored depth-first in next-hop order, minus the
//     transitions f prunes;
//   - revisiting a node on the current walk, or exceeding maxTraceDepth
//     hops, emits Looped;
//   - a node with no route, or whose every successor f prunes, emits
//     BlackHoled; a failed start emits the single path [start] BlackHoled;
//   - only the first maxTracePaths paths in DFS order are emitted.
//
// Callers hold mu.
func (e *destEngine) walk(start int32, f failNodes) *walker {
	w := &e.w
	w.e, w.f = e, f
	w.stack, w.hops, w.paths = w.stack[:0], w.hops[:0], w.paths[:0]
	if f.failsNode(start) {
		w.stack = append(w.stack, start)
		w.emit(BlackHoled)
		return w
	}
	if len(w.onStack) < e.size() {
		w.onStack = make([]bool, e.size())
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
	kind, nhs := e.hops(cur)
	switch {
	case kind == deliveredNode:
		w.emit(Delivered)
	case w.onStack[cur] || len(w.stack) > maxTraceDepth:
		w.emit(Looped)
	case kind == blackholeNode:
		w.emit(BlackHoled)
	default:
		w.onStack[cur] = true
		live := false
		for _, nh := range nhs {
			s := e.node(nh)
			if w.f.prunes(cur, s) {
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
	slices.SortFunc(w.paths, func(a, b walkedPath) int {
		if c := strings.Compare(a.st.String(), b.st.String()); c != 0 {
			return c
		}
		return cmpJoined(w.e, w.hops[a.start:a.end], w.hops[b.start:b.end])
	})
}

// cmpJoined compares the names of hop list x joined by ">" with those of
// y, as byte strings. Where one name is a proper prefix of the other, the
// shorter one's key goes on with the separator or ends there, so "r1>…"
// sorts after "r10>…" although "r1" sorts before "r10".
func cmpJoined(e *destEngine, x, y []int32) int {
	next := func(hops []int32, k int) int { // the byte after hop k's name
		if k+1 < len(hops) {
			return '>'
		}
		return -1 // the key ends
	}
	for k := 0; k < len(x) && k < len(y); k++ {
		a, b := e.name(x[k]), e.name(y[k])
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
		return strings.Compare(joinHops(e, x[k:]), joinHops(e, y[k:]))
	}
	return cmp.Compare(len(x), len(y))
}

// joinHops returns the names of hops joined by ">".
func joinHops(e *destEngine, hops []int32) string {
	parts := make([]string, len(hops))
	for i, h := range hops {
		parts[i] = e.name(h)
	}
	return strings.Join(parts, ">")
}

// listing returns the walked paths, in their current order, as a Listing
// of its own: their hops copied path after path into one exactly-sized
// slice, so a cached Listing holds none of the walker's buffers, and
// their outcomes counted.
func (w *walker) listing() Listing {
	l := Listing{e: w.e, hops: make([]int32, len(w.hops)), paths: make([]walkedPath, len(w.paths))}
	n := int32(0)
	for i, p := range w.paths {
		copy(l.hops[n:], w.hops[p.start:p.end])
		l.paths[i] = walkedPath{start: n, end: n + p.end - p.start, st: p.st}
		n = l.paths[i].end
		switch p.st {
		case Delivered:
			l.delivered++
		case Looped:
			l.looped++
		}
	}
	return l
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
			buf = append(buf, w.e.name(h)...)
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
// reordered.
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
