package sim

import "fmt"

// This file answers what-if queries: forwarding under a single failed
// element. The failure model is deliberately *data-plane only* — the failed
// node or link is pruned from the per-destination successor graphs, but the
// FIBs are those computed before the failure. No control-plane
// reconvergence is simulated: the question answered is "where does traffic
// go in the window after the element dies and before routing reacts",
// which is the transient the verification literature's what-if queries
// target, and it is exactly what lets the query engine serve these from
// the cached per-destination engines instead of re-simulating.
//
// A query resolves the failed element to the engine's node indices once,
// so pruning a transition compares indices, not names. A source whose
// successor graph cannot reach the failed element is provably
// unaffected; its cached (no-failure) listing is reused verbatim. Only
// sources that can reach the failure are re-walked, with the pruned edges
// skipped. The Snapshot counts both outcomes so callers (and the
// acceptance tests) can assert that what-if batches re-trace only dirty
// work.

// Failure is a single failed element: exactly one of a node (router or
// host, by device name) or an undirected link (both endpoint device
// names).
type Failure struct {
	Node  string `json:"node,omitempty"`
	LinkA string `json:"link_a,omitempty"`
	LinkB string `json:"link_b,omitempty"`
}

// IsZero reports whether no failure is specified.
func (f Failure) IsZero() bool { return f.Node == "" && f.LinkA == "" && f.LinkB == "" }

// Validate checks that the failure names exactly one element.
func (f Failure) Validate() error {
	hasNode := f.Node != ""
	hasLink := f.LinkA != "" || f.LinkB != ""
	switch {
	case hasNode && hasLink:
		return fmt.Errorf("sim: failure specifies both a node and a link")
	case !hasNode && !hasLink:
		return fmt.Errorf("sim: empty failure")
	case hasLink && (f.LinkA == "" || f.LinkB == ""):
		return fmt.Errorf("sim: link failure needs both endpoints")
	case hasLink && f.LinkA == f.LinkB:
		return fmt.Errorf("sim: link failure endpoints must differ")
	}
	return nil
}

func (f Failure) String() string {
	if f.Node != "" {
		return "node(" + f.Node + ")"
	}
	return "link(" + f.LinkA + "<->" + f.LinkB + ")"
}

// failNodes is a Failure resolved to one engine's nodes: the failed node
// a (b < 0), or a failed link's endpoints a ≤ b. noFailure prunes
// nothing.
type failNodes struct{ a, b int32 }

var noFailure = failNodes{-1, -1}

// failsNode reports whether node n is the failed node.
func (f failNodes) failsNode(n int32) bool { return f.b < 0 && n == f.a }

// prunes reports whether the failure removes the transition cur→next.
// A failed node swallows every transition into it; a failed link removes
// the transitions between its endpoints in both directions.
func (f failNodes) prunes(cur, next int32) bool {
	if f.b < 0 {
		return next == f.a
	}
	return cur == f.a && next == f.b || cur == f.b && next == f.a
}

// failKey keys an engine's what-if listings: link endpoints are ordered,
// so either spelling of a link failure finds one entry.
type failKey struct {
	f   failNodes
	src int32
}

// resolve returns f's nodes, registering a failed device the engine has
// no node for as indexOf does; no transition leads to such a node, so
// failing it prunes nothing. Callers hold mu, with the engine built.
func (e *destEngine) resolve(f Failure) failNodes {
	if f.Node != "" {
		return failNodes{e.indexOf(f.Node), -1}
	}
	a, b := e.indexOf(f.LinkA), e.indexOf(f.LinkB)
	return failNodes{min(a, b), max(a, b)}
}

// TraceUnderFailure walks the FIBs from start toward host dst with a
// single failed element pruned from the forwarding graph. FIBs are the
// pre-failure ones (see the failure model above). Semantics relative to
// TraceFrom:
//
//   - a device whose every surviving next hop is pruned black-holes the
//     walk there (the packet has nowhere live to go);
//   - the failed node never appears as a hop — if start itself is the
//     failed node the result is the single path [start] black-holed;
//   - loop and depth truncation are unchanged.
//
// A zero failure degrades to TraceFrom. It names ListUnderFailure's
// listing afresh on each call, so the caller owns the slices.
func (s *Snapshot) TraceUnderFailure(start, dst string, f Failure) []Path {
	return s.ListUnderFailure(start, dst, f).Paths()
}

// ListUnderFailure is ListFrom under a single failed element, the listing
// TraceUnderFailure names; a zero failure lists as ListFrom. Listings are
// cached per (failure, start) on the destination engine.
func (s *Snapshot) ListUnderFailure(start, dst string, f Failure) Listing {
	e := s.engineFor(dst)
	if e == nil {
		return Listing{}
	}
	e.lock()
	defer e.mu.Unlock()
	return e.listUnder(e.indexOf(start), f)
}

// ListUnderFailure is List under a single failed element, as
// Snapshot.ListUnderFailure lists it.
func (d Dest) ListUnderFailure(dev int32, f Failure) Listing {
	if d.e == nil {
		return Listing{}
	}
	d.e.lock()
	defer d.e.mu.Unlock()
	return d.e.listUnder(dev, f)
}

// WhatIfStats returns how many what-if traces were served by re-walking a
// pruned graph (retraced) versus reusing the cached no-failure result
// because the source provably cannot reach the failed element (reused).
// Cache hits on previously answered (failure, src, dst) triples count as
// neither.
func (s *Snapshot) WhatIfStats() (retraced, reused int64) {
	return s.whatIfRetraced.Load(), s.whatIfReused.Load()
}

// listUnder returns node i's listing under f, the unfailed one (listAt)
// for a zero failure. Under a failure it reuses the unfailed listing when
// the failure is unreachable from i in the successor graph, and otherwise
// runs the pruned walk. Each (failure, source) answer is kept in failRes
// as an index into lists, so a reuse keeps no listing of its own, and a
// repeated question is a lookup that counts as neither. Callers hold mu,
// with the engine built.
func (e *destEngine) listUnder(i int32, f Failure) Listing {
	if f.IsZero() {
		return e.lists[e.listAt(i)]
	}
	key := failKey{e.resolve(f), i}
	if at, ok := e.failRes[key]; ok {
		return e.lists[at]
	}
	if e.failRes == nil {
		e.failRes = make(map[failKey]int32)
	}
	if !e.failureReaches(i, key.f) {
		e.snap.whatIfReused.Add(1)
		at := e.listAt(i)
		e.failRes[key] = at
		return e.lists[at]
	}
	e.snap.whatIfRetraced.Add(1)
	e.lists = append(e.lists, e.list(i, key.f))
	e.failRes[key] = int32(len(e.lists) - 1)
	return e.lists[len(e.lists)-1]
}

// failureReaches reports whether the successor graph from start can
// encounter the failed element. It over-approximates (ignores depth and
// path caps), which is sound: a false return guarantees the pruned walk
// would equal the unpruned one. Callers hold mu.
func (e *destEngine) failureReaches(start int32, f failNodes) bool {
	if f.failsNode(start) {
		return true
	}
	if n := e.size(); len(e.seen) < n {
		e.seen = make([]bool, n)
	} else {
		clear(e.seen)
	}
	e.seen[start] = true
	stack := append(e.todo[:0], start)
	reached := false
	for len(stack) > 0 && !reached {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		_, nhs := e.hops(cur)
		for _, nh := range nhs {
			s := e.node(nh)
			if f.prunes(cur, s) {
				reached = true
				break
			}
			if !e.seen[s] {
				e.seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	e.todo = stack[:0]
	return reached
}
