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
// the devices form a successor graph toward that destination; the path set
// from any source is the source's suffix set in that graph. The engine
// computes each device's suffix set once via a memoized DFS instead of
// re-walking shared path suffixes for every source.
//
// Memoization is only sound where the walk outcome is independent of how
// the walk arrived:
//
//   - Around forwarding loops a walk is truncated when it revisits a
//     device already on the *current* walk, so the emitted hop sequence
//     depends on the entry point. A cycle-taint pass (DFS over the
//     successor graph) marks every node on or upstream of a cycle as
//     loopy; loopy nodes are walked.
//   - Past maxTraceDepth a walk is truncated with Looped status, so a
//     suffix is only spliced in when prefix+suffix provably fits the
//     depth budget (maxLen, the longest memoized suffix, is tracked per
//     node). Deeper prefixes are walked too.
//
// The walk itself is written once (walk, below) and materializes the
// paths it emits. Everything else — ECMP branch order, the maxTracePaths
// cap, Delivered / Looped / BlackHoled classification, final canonical
// sort — reproduces the per-pair recursive walker byte for byte; the tests
// pin that against a naive reimplementation on the evaluation networks, on
// randomized topologies with injected loops and black holes, and across
// the path cap. DeliveredFrom is not a walk: it answers reachability in
// the successor graph by one reverse traversal, with no cap.
//
// Devices are addressed by dense index (the Snapshot's shared device
// table) rather than name, and suffix sets are stored structurally (each
// entry references the child entry it extends) rather than as materialized
// hop lists, so building a destination's memo costs a handful of
// allocations per node instead of several per path.

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
	// loopy marks nodes on a forwarding cycle or upstream of one; their
	// suffix sets depend on walk history and are never memoized.
	loopy bool
	// maxLen is the longest memoized suffix (hop count including this
	// node); valid only for non-loopy nodes. A suffix set is spliced
	// into a walk only when prefixLen+maxLen fits maxTraceDepth.
	maxLen int
	// succ is the ordered next-hop index list — rt.NextHops order, the
	// order the recursive walker branches in.
	succ []int32
	// memo is the node's path-suffix set (each suffix starts at this
	// node), capped at maxTracePaths; nil until built. Non-loopy suffix
	// sets are never empty, so nil is unambiguous.
	memo *memoSet
}

// memoSet is one node's suffix set in DFS emission order (the order the
// recursive walker enumerates branches, which is what the maxTracePaths
// truncation is defined over), plus a permutation sorting it canonically.
//
// Suffixes are stored structurally, not materialized: entry j is the
// node's own name followed by entry sub[j] of node child[j] (child < 0
// terminates). Hops and Path.Key strings therefore exist nowhere in the
// memo — a suffix set costs five parallel slices per node instead of a
// string per hop per path, and the big win is at interior nodes, whose
// suffixes are only ever building blocks. Sources materialize their own
// path lists once in viewOf.
//
// The canonical order is built incrementally from the children's:
// prepending the same device to every suffix of a child rewrites each key
// from "<status>:<hops>" to "<status>:<dev>><hops>", which changes no
// pairwise comparison (status strings are mutually non-prefix and compared
// identically in both forms, and within one status the "<dev>>" prefix is
// shared) — so the parent's canonical order is a k-way merge of the
// children's, comparing child suffixes directly. cmpSuffix performs that
// comparison over the virtual joined strings without building them.
type memoSet struct {
	status []PathStatus
	child  []int32 // suffix continuation node, -1 when this entry is terminal
	sub    []int32 // entry index within child's memo
	length []int32 // hop count including this node
	order  []int32 // entry indices, canonically sorted
}

// statusOrder gives each Status the rank its String() has in lexicographic
// order ("blackholed" < "delivered" < "looped"), so suffix comparisons
// match Path.Key comparisons without building the strings.
func statusOrder(s PathStatus) int {
	switch s {
	case BlackHoled:
		return 0
	case Delivered:
		return 1
	default:
		return 2
	}
}

// joinIter streams the chunks of a memoized suffix's virtually joined hop
// string: name, ">", name, ">", ..., name.
type joinIter struct {
	e        *destEngine
	node, ei int32
	sep      bool
}

func (it *joinIter) next() (string, bool) {
	if it.sep {
		it.sep = false
		return ">", true
	}
	if it.node < 0 {
		return "", false
	}
	name := it.e.nameAt[it.node]
	m := it.e.nodes[it.node].memo
	it.node, it.ei = m.child[it.ei], m.sub[it.ei]
	it.sep = it.node >= 0
	return name, true
}

// cmpSuffix compares entry ai of node an's memo against entry bi of node
// bn's, in exactly the order their Path.Key strings would compare. Sibling
// suffixes diverge at the first hop (the two child devices), so the chunk
// walk almost always terminates immediately.
func (e *destEngine) cmpSuffix(an, ai, bn, bi int32) int {
	ma, mb := e.nodes[an].memo, e.nodes[bn].memo
	if ra, rb := statusOrder(ma.status[ai]), statusOrder(mb.status[bi]); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	ita := joinIter{e: e, node: an, ei: ai}
	itb := joinIter{e: e, node: bn, ei: bi}
	ca, oka := ita.next()
	cb, okb := itb.next()
	for {
		switch {
		case !oka && !okb:
			return 0
		case !oka:
			return -1
		case !okb:
			return 1
		}
		n := len(ca)
		if len(cb) < n {
			n = len(cb)
		}
		if pa, pb := ca[:n], cb[:n]; pa != pb {
			if pa < pb {
				return -1
			}
			return 1
		}
		ca, cb = ca[n:], cb[n:]
		if len(ca) == 0 {
			ca, oka = ita.next()
		}
		if len(cb) == 0 {
			cb, okb = itb.next()
		}
	}
}

// appendSuffix appends one memoized suffix's hops to dst.
func (e *destEngine) appendSuffix(dst []string, node, ei int32) []string {
	for node >= 0 {
		dst = append(dst, e.nameAt[node])
		m := e.nodes[node].memo
		node, ei = m.child[ei], m.sub[ei]
	}
	return dst
}

// appendNames appends the names of the given nodes to dst.
func (e *destEngine) appendNames(dst []string, nodes []int32) []string {
	for _, i := range nodes {
		dst = append(dst, e.nameAt[i])
	}
	return dst
}

// spliceable reports whether node i's memoized suffix set stands in
// exactly for a walk from i entered after depth hops: i is not loopy and
// its longest suffix fits the depth budget.
func (e *destEngine) spliceable(i int32, depth int) bool {
	n := &e.nodes[i]
	return !n.loopy && depth+n.maxLen <= maxTraceDepth
}

// viewOf materializes a spliceable node's canonical (sorted) path list and
// fingerprint from its memo. Callers hold mu.
func (e *destEngine) viewOf(i int32) ([]Path, Digest) {
	ps := make([]Path, len(e.memoOf(i).order))
	return ps, e.keyDigest(i, ps)
}

// keyDigest fingerprints a spliceable node's canonical path-set key — the
// sorted "<status>:<hops>" lines joined with "\n" — streaming the key
// bytes out of the suffix memos through the engine's scratch buffer, so
// no key string is built. A non-nil ps (one slot per suffix) also
// receives the canonical paths, in the same pass; with nil ps no hop list
// is built. Callers hold mu.
func (e *destEngine) keyDigest(i int32, ps []Path) Digest {
	m := e.memoOf(i)
	buf := e.scratch[:0]
	for k, j := range m.order {
		if k > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, m.status[j].String()...)
		buf = append(buf, ':')
		var hops []string
		if ps != nil {
			hops = make([]string, 0, m.length[j])
		}
		for node, ei := i, j; node >= 0; {
			name := e.nameAt[node]
			buf = append(buf, name...)
			if ps != nil {
				hops = append(hops, name)
			}
			sm := e.nodes[node].memo
			if node, ei = sm.child[ei], sm.sub[ei]; node >= 0 {
				buf = append(buf, '>')
			}
		}
		if ps != nil {
			ps[k] = Path{Hops: hops, Status: m.status[j]}
		}
	}
	e.scratch = buf[:0]
	return digestOfBytes(buf)
}

// digestFor returns only the fingerprint of the canonical path set from
// src. Unlike pathsFor the result is not cached in bySrc — digest-only
// extraction queries each source exactly once per destination — except
// for sources that must be walked, which go through the caching path. A
// nil engine (unknown destination) yields the zero digest of the empty
// path set, like TraceFrom's nil.
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
	if i := e.indexOf(src); e.spliceable(i, 0) {
		return e.keyDigest(i, nil)
	}
	_, fp := e.pathsForLocked(src)
	return fp
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

// destEngine holds one destination's successor graph, per-node suffix
// memos, and finished per-source results. All lazy state is guarded by mu
// so concurrent TraceFrom calls on the same destination are safe; distinct
// destinations never share an engine.
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
	// scratch is the reusable canonical-key byte buffer keyDigest hashes
	// through; guarded by mu like the rest of the lazy state.
	scratch []byte
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
// expensive per-destination analysis happens on the worker that owns the
// destination.
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
// done, so the successor graph and suffix-memo storage are reclaimed
// instead of accumulating one retained engine per host. Returns nil when
// dst is not a known host, like engineFor.
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
// the engine's destination, computing it at most once per source.
//
// The common case — src spliceable: not on or upstream of a forwarding
// loop, longest path within the depth budget — reads the src node's
// memoized suffix set in its precomputed canonical order. Other sources
// are walked and sorted.
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
	var ps []Path
	var fp Digest
	if i := e.indexOf(src); e.spliceable(i, 0) {
		ps, fp = e.viewOf(i)
	} else {
		ps, fp = sortPathsByKey(e.walk(i, Failure{}))
	}
	if e.bySrc == nil {
		e.bySrc = make(map[string]srcResult)
	}
	e.bySrc[src] = srcResult{paths: ps, fp: fp}
	return ps, fp
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

// build derives the successor graph over every configured device and runs
// the cycle-taint + max-suffix-length analysis. Callers hold mu.
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

	// Iterative three-color DFS. A gray target is a back edge: the target
	// is on a cycle, and the current node reaches it. Propagation happens
	// at pop time — every successor is finalized (or gray, handled at the
	// encounter) by then — which also finalizes maxLen for the non-loopy
	// region in the same pass.
	const (
		white = uint8(0)
		gray  = uint8(1)
		black = uint8(2)
	)
	color := make([]uint8, len(e.nodes))
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for root := int32(0); root < int32(len(e.nodes)); root++ {
		if color[root] != white {
			continue
		}
		stack = append(stack[:0], frame{node: root})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := &e.nodes[f.node]
			if f.next < len(n.succ) {
				s := n.succ[f.next]
				f.next++
				sn := &e.nodes[s]
				switch color[s] {
				case white:
					color[s] = gray
					stack = append(stack, frame{node: s})
				case gray:
					// Back edge: s is on a cycle and f.node reaches it.
					sn.loopy = true
					n.loopy = true
				default: // black: finalized
					if sn.loopy {
						n.loopy = true
					}
				}
				continue
			}
			// Finalize.
			maxLen := 1
			for _, s := range n.succ {
				sn := &e.nodes[s]
				if sn.loopy || color[s] == gray {
					n.loopy = true
				}
				if sn.maxLen >= maxLen {
					maxLen = sn.maxLen + 1
				}
			}
			if !n.loopy {
				n.maxLen = maxLen
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
}

// memoOf returns (building on demand) a node's suffix set, capped at
// maxTracePaths in DFS emission order (exactly the recursive walker's
// first-N truncation, since children are concatenated in next-hop order
// and each child's memo is itself DFS-ordered). Entries only reference the
// child entry they extend; the canonical order derives incrementally from
// the children (see memoSet). Only called for non-loopy nodes, whose
// downstream region is a DAG, so the recursion is bounded by maxLen.
// Callers hold mu.
func (e *destEngine) memoOf(i int32) *memoSet {
	n := &e.nodes[i]
	if n.memo != nil {
		return n.memo
	}
	if n.kind != transitNode {
		status := BlackHoled
		if n.kind == deliveredNode {
			status = Delivered
		}
		n.memo = &memoSet{
			status: []PathStatus{status},
			child:  []int32{-1},
			sub:    []int32{-1},
			length: []int32{1},
			order:  []int32{0},
		}
		return n.memo
	}

	// Pass 1: resolve children and apply the global path cap. Child c
	// contributes its first cnt[c] DFS entries — the walker's first-N
	// truncation.
	subs := make([]*memoSet, len(n.succ))
	for k, s := range n.succ {
		subs[k] = e.memoOf(s)
	}
	cnt := make([]int, len(subs))
	offset := make([]int32, len(subs))
	total := 0
	for ci, sub := range subs {
		c := len(sub.status)
		if total+c > maxTracePaths {
			c = maxTracePaths - total
		}
		cnt[ci] = c
		offset[ci] = int32(total)
		total += c
	}

	// Pass 2: emit in DFS order.
	m := &memoSet{
		status: make([]PathStatus, 0, total),
		child:  make([]int32, 0, total),
		sub:    make([]int32, 0, total),
		length: make([]int32, 0, total),
	}
	for ci, sub := range subs {
		c := n.succ[ci]
		for di := 0; di < cnt[ci]; di++ {
			m.status = append(m.status, sub.status[di])
			m.child = append(m.child, c)
			m.sub = append(m.sub, int32(di))
			m.length = append(m.length, sub.length[di]+1)
		}
	}

	// Pass 3: canonical order via k-way merge of the children's sorted
	// orders, comparing child suffixes (equivalent to parent-key order).
	m.order = make([]int32, 0, total)
	ptrs := make([]int, len(subs))
	for len(m.order) < total {
		best := -1
		for ci, sub := range subs {
			p := ptrs[ci]
			// Skip entries the cap excluded from this node.
			for p < len(sub.order) && int(sub.order[p]) >= cnt[ci] {
				p++
			}
			ptrs[ci] = p
			if p >= len(sub.order) {
				continue
			}
			if best < 0 || e.cmpSuffix(n.succ[ci], sub.order[p], n.succ[best], subs[best].order[ptrs[best]]) < 0 {
				best = ci
			}
		}
		m.order = append(m.order, offset[best]+subs[best].order[ptrs[best]])
		ptrs[best]++
	}
	n.memo = m
	return m
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
//   - only the first maxTracePaths paths in DFS order are emitted;
//   - with no failure, a spliceable node's memoized suffix set stands in
//     for the walk below it (by the taint analysis no such suffix can
//     revisit a walk ancestor).
//
// Callers hold mu.
func (e *destEngine) walk(start int32, f Failure) []Path {
	if f.Node != "" && e.nameAt[start] == f.Node {
		return []Path{{Hops: []string{e.nameAt[start]}, Status: BlackHoled}}
	}
	w := walker{e: e, f: f}
	w.visit(start)
	return w.out
}

func (w *walker) visit(cur int32) {
	if len(w.out) >= maxTracePaths {
		return
	}
	e := w.e
	if w.f.IsZero() && e.spliceable(cur, len(w.hops)) {
		w.splice(cur)
		return
	}
	if w.onStack == nil {
		w.onStack = make([]bool, len(e.nodes))
	}
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
	w.out = append(w.out, Path{Hops: w.e.appendNames(make([]string, 0, len(w.hops)), w.hops), Status: st})
}

// splice emits the first DFS-ordered entries of node i's memoized suffix
// set that fit under maxTracePaths, each extending the hop stack.
func (w *walker) splice(i int32) {
	m := w.e.memoOf(i)
	n := min(len(m.status), maxTracePaths-len(w.out))
	for j := 0; j < n; j++ {
		hops := w.e.appendNames(make([]string, 0, len(w.hops)+int(m.length[j])), w.hops)
		w.out = append(w.out, Path{Hops: w.e.appendSuffix(hops, i, int32(j)), Status: m.status[j]})
	}
}

// sortPathsByKey orders paths canonically, deriving each Key exactly once
// (the recursive walker recomputed both keys inside the comparator), and
// returns the 128-bit canonical fingerprint alongside. The sorted keys
// are hashed through one exactly-sized transient buffer instead of being
// joined into a retained string. The input slice is not reordered —
// memoized slices are shared across sources.
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
