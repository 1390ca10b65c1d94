package sim

import (
	"math"
	"sort"
	"sync"
)

// The SPF core works over interned integer node IDs rather than router-name
// maps. Node names are interned once per graph into a dense int32 ID space,
// the adjacency lives in CSR form (one offset slice plus flat arc arrays),
// and each Dijkstra run fills a dense []int32 distance row driven by a
// typed binary min-heap — no map lookups, no interface boxing, no
// container/heap. All-pairs state is a DistMatrix whose rows are computed
// on demand per destination (and kept, since SPF distances are
// filter-independent for the Net's lifetime), so a simulation only ever
// pays for the rows it touches and transient per-prefix distance rows can
// be streamed through a pool instead of being materialized for every
// prefix at once.

// interner maps router names to dense int32 IDs and back. IDs are assigned
// in sorted-name order, so the mapping is deterministic for a given node
// set regardless of insertion order.
type interner struct {
	names []string
	ids   map[string]int32
}

// internNames builds an interner over the given names (deduplicated;
// input order irrelevant).
func internNames(names []string) *interner {
	sorted := append(make([]string, 0, len(names)), names...)
	sort.Strings(sorted)
	t := &interner{names: sorted[:0], ids: make(map[string]int32, len(sorted))}
	for _, name := range sorted {
		if _, ok := t.ids[name]; ok {
			continue
		}
		t.ids[name] = int32(len(t.names))
		t.names = append(t.names, name)
	}
	return t
}

func (t *interner) id(name string) (int32, bool) {
	i, ok := t.ids[name]
	return i, ok
}

func (t *interner) size() int { return len(t.names) }

// csrArc is one directed weighted edge in CSR storage. The cost is that of
// the outgoing interface on the source router, matching OSPF semantics
// where each direction of a link may carry a different cost; nh is the
// forward arc's next hop from the source router (zero in a reversed
// graph).
type csrArc struct {
	to   int32
	cost int32
	nh   NextHop
}

// csrEdge is the builder-side edge representation fed to buildCSR.
type csrEdge struct {
	from, to int32
	cost     int32
	nh       NextHop
}

// csrGraph is a weighted directed graph in compressed-sparse-row form:
// arcs[off[v]:off[v+1]] are v's outgoing arcs, preserving the insertion
// order of edges with the same source.
type csrGraph struct {
	t    *interner
	off  []int32
	arcs []csrArc
}

// buildCSR assembles the CSR adjacency from an edge list via counting
// sort, keeping same-source edges in input order.
func buildCSR(t *interner, edges []csrEdge) *csrGraph {
	n := t.size()
	g := &csrGraph{t: t, off: make([]int32, n+1), arcs: make([]csrArc, len(edges))}
	for _, e := range edges {
		g.off[e.from+1]++
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	next := append(make([]int32, 0, n), g.off[:n]...)
	for _, e := range edges {
		g.arcs[next[e.from]] = csrArc{to: e.to, cost: e.cost, nh: e.nh}
		next[e.from]++
	}
	return g
}

// reverse returns the transposed graph (every arc u→v becomes v→u with the
// same cost). Dijkstra over the reverse graph from node d yields the
// distances *into* d from every source — the row orientation every
// consumer of all-pairs state reads.
func (g *csrGraph) reverse() *csrGraph {
	edges := make([]csrEdge, 0, len(g.arcs))
	for v := int32(0); v < int32(g.t.size()); v++ {
		for _, a := range g.arcs[g.off[v]:g.off[v+1]] {
			edges = append(edges, csrEdge{from: a.to, to: v, cost: a.cost})
		}
	}
	return buildCSR(g.t, edges)
}

// outArcs returns v's outgoing arcs.
func (g *csrGraph) outArcs(v int32) []csrArc { return g.arcs[g.off[v]:g.off[v+1]] }

// satAdd32 adds two non-negative costs, saturating at MaxInt32 instead of
// wrapping. Real OSPF costs are ≤ 65535 so saturation is unreachable in
// practice; it only guards against absurd hand-written configs.
func satAdd32(a, b int32) int32 {
	s := a + b
	if s < a {
		return math.MaxInt32
	}
	return s
}

// clampCost32 narrows a config-sourced cost to int32, clamping values
// outside the representable range.
func clampCost32(c int) int32 {
	if c > math.MaxInt32 {
		return math.MaxInt32
	}
	if c < 0 {
		return 0
	}
	return int32(c)
}

// spfHeap is a typed binary min-heap of (dist, node) pairs in parallel
// int32 slices — no interface boxing, no container/heap. Entries are never
// updated in place; decrease-key pushes a duplicate and the pop loop skips
// stale entries via the caller's done set (lazy deletion). EIGRP's
// composite metric runs distance-vector rounds (no priority queue), so
// Dijkstra is the heap's only client.
type spfHeap struct {
	dist []int32
	node []int32
}

func (h *spfHeap) reset() {
	h.dist = h.dist[:0]
	h.node = h.node[:0]
}

func (h *spfHeap) empty() bool { return len(h.dist) == 0 }

func (h *spfHeap) push(d, n int32) {
	h.dist = append(h.dist, d)
	h.node = append(h.node, n)
	i := len(h.dist) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.dist[p] <= h.dist[i] {
			break
		}
		h.dist[p], h.dist[i] = h.dist[i], h.dist[p]
		h.node[p], h.node[i] = h.node[i], h.node[p]
		i = p
	}
}

func (h *spfHeap) pop() (int32, int32) {
	d, n := h.dist[0], h.node[0]
	last := len(h.dist) - 1
	h.dist[0], h.node[0] = h.dist[last], h.node[last]
	h.dist, h.node = h.dist[:last], h.node[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h.dist[l] < h.dist[min] {
			min = l
		}
		if r < last && h.dist[r] < h.dist[min] {
			min = r
		}
		if min == i {
			break
		}
		h.dist[min], h.dist[i] = h.dist[i], h.dist[min]
		h.node[min], h.node[i] = h.node[i], h.node[min]
		i = min
	}
	return d, n
}

// spfScratch is the reusable per-run Dijkstra state: the heap and the
// settled set. Pooled so concurrent row computations allocate nothing
// after warm-up.
type spfScratch struct {
	heap spfHeap
	done []bool
}

var spfScratchPool = sync.Pool{New: func() any { return new(spfScratch) }}

func getScratch(n int) *spfScratch {
	sc := spfScratchPool.Get().(*spfScratch)
	sc.heap.reset()
	if cap(sc.done) < n {
		sc.done = make([]bool, n)
	} else {
		sc.done = sc.done[:n]
		for i := range sc.done {
			sc.done[i] = false
		}
	}
	return sc
}

func putScratch(sc *spfScratch) { spfScratchPool.Put(sc) }

// dijkstraInto fills row (length g.t.size()) with shortest-path distances
// from src; unreachable nodes get -1.
func (g *csrGraph) dijkstraInto(src int32, row []int32) {
	for i := range row {
		row[i] = -1
	}
	sc := getScratch(len(row))
	row[src] = 0
	sc.heap.push(0, src)
	for !sc.heap.empty() {
		d, v := sc.heap.pop()
		if sc.done[v] {
			continue
		}
		sc.done[v] = true
		for _, a := range g.outArcs(v) {
			nd := satAdd32(d, a.cost)
			if cur := row[a.to]; cur < 0 || nd < cur {
				row[a.to] = nd
				sc.heap.push(nd, a.to)
			}
		}
	}
	putScratch(sc)
}

// DistMatrix is the all-pairs SPF result over one OSPF domain's routers,
// stored as dense int32 rows indexed by DESTINATION: row d holds, for
// every source id s, the distance s→d (-1 when unreachable), computed by
// one Dijkstra over the reversed cost graph. Every consumer — per-prefix
// distance streaming, BGP recursive next-hop resolution, fake-link cost
// derivation, the SPT attack — reads "distance into X from many sources",
// so the destination-major layout turns those scans into sequential row
// walks.
//
// Rows are computed on demand on first touch and kept (SPF distances are
// filter-independent, so they stay valid for the Net's lifetime): a
// simulation pays only for the destinations it actually resolves, and
// never materializes the old map[string]map[string]int all-pairs result.
// Reads of a computed row are lock-free; computation is serialized.
type DistMatrix struct {
	t   *interner
	rev *csrGraph
	mu  sync.Mutex // serializes row computation; rows load lock-free
	row []rowSlot
}

type rowSlot struct {
	p *[]int32
}

func newDistMatrix(rev *csrGraph) *DistMatrix {
	return &DistMatrix{t: rev.t, rev: rev, row: make([]rowSlot, rev.t.size())}
}

// rowTo returns the dense distance row into destination id d, computing it
// on first use.
func (m *DistMatrix) rowTo(d int32) []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.row[d].p; p != nil {
		return *p
	}
	r := make([]int32, m.t.size())
	m.rev.dijkstraInto(d, r)
	m.row[d].p = &r
	return r
}

// computeAll materializes every row, fanning the per-destination runs out
// across the worker pool; each run writes its own slot, so the result is
// identical to on-demand computation.
func (m *DistMatrix) computeAll(workers int) {
	n := m.t.size()
	rows := make([][]int32, n)
	forEachIndex(workers, n, func(i int) {
		r := make([]int32, n)
		m.rev.dijkstraInto(int32(i), r)
		rows[i] = r
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range rows {
		if m.row[i].p == nil {
			m.row[i].p = &rows[i]
		}
	}
}

// Dist returns the SPF distance from router a to router b, with ok=false
// when either router is outside the OSPF domain or b is unreachable from
// a. Safe on a nil receiver (networks with no OSPF speakers).
func (m *DistMatrix) Dist(a, b string) (int, bool) {
	if m == nil {
		return 0, false
	}
	ai, oka := m.t.id(a)
	bi, okb := m.t.id(b)
	if !oka || !okb {
		return 0, false
	}
	d := m.rowTo(bi)[ai]
	if d < 0 {
		return 0, false
	}
	return int(d), true
}

// Routers returns the interned router set in id order (sorted names).
func (m *DistMatrix) Routers() []string {
	if m == nil {
		return nil
	}
	return m.t.names
}
