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
// A source whose successor graph cannot reach the failed element is
// provably unaffected; its cached (no-failure) path set is reused
// verbatim. Only sources that can reach the failure are re-walked, with
// the pruned edges skipped. The Snapshot counts both outcomes so callers
// (and the acceptance tests) can assert that what-if batches re-trace only
// dirty work.

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

// cacheKey is the canonical per-engine cache key; link endpoints are
// order-insensitive.
func (f Failure) cacheKey() string {
	if f.Node != "" {
		return "n\x00" + f.Node
	}
	a, b := f.LinkA, f.LinkB
	if b < a {
		a, b = b, a
	}
	return "l\x00" + a + "\x00" + b
}

// prunes reports whether the failure removes the transition cur→next.
// A failed node swallows every transition into it; a failed link removes
// the transitions between its endpoints in both directions.
func (f Failure) prunes(cur, next string) bool {
	if f.Node != "" {
		return next == f.Node
	}
	return (cur == f.LinkA && next == f.LinkB) || (cur == f.LinkB && next == f.LinkA)
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
// A zero failure degrades to TraceFrom. Results are cached per
// (failure, start) on the destination engine; callers must treat the
// returned paths as read-only.
func (s *Snapshot) TraceUnderFailure(start, dst string, f Failure) []Path {
	if f.IsZero() {
		return s.TraceFrom(start, dst)
	}
	e := s.engineFor(dst)
	if e == nil {
		return nil
	}
	return e.pathsUnderFailure(start, f)
}

// WhatIfStats returns how many what-if traces were served by re-walking a
// pruned graph (retraced) versus reusing the cached no-failure result
// because the source provably cannot reach the failed element (reused).
// Cache hits on previously answered (failure, src, dst) triples count as
// neither.
func (s *Snapshot) WhatIfStats() (retraced, reused int64) {
	return s.whatIfRetraced.Load(), s.whatIfReused.Load()
}

// pathsUnderFailure is pathsFor under a failure: reuse the no-failure
// result when the failure is unreachable from src in the successor graph,
// otherwise run the pruned walk. Results are cached per (failure, src).
func (e *destEngine) pathsUnderFailure(src string, f Failure) []Path {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := f.cacheKey() + "\x00" + src
	if ps, ok := e.failRes[key]; ok {
		return ps
	}
	if !e.built {
		e.build()
	}
	i := e.indexOf(src)
	var ps []Path
	if !e.failureReaches(i, f) {
		ps = e.pathsForLocked(src)
		e.snap.whatIfReused.Add(1)
	} else {
		ps = e.trace(i, f)
		e.snap.whatIfRetraced.Add(1)
	}
	if e.failRes == nil {
		e.failRes = make(map[string][]Path)
	}
	e.failRes[key] = ps
	return ps
}

// failureReaches reports whether the successor graph from start can
// encounter the failed element. It over-approximates (ignores depth and
// path caps), which is sound: a false return guarantees the pruned walk
// would equal the unpruned one. Callers hold mu.
func (e *destEngine) failureReaches(start int32, f Failure) bool {
	if f.Node != "" && e.nameAt[start] == f.Node {
		return true
	}
	seen := make([]bool, len(e.nodes))
	stack := []int32{start}
	seen[start] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		name := e.nameAt[cur]
		for _, s := range e.nodes[cur].succ {
			if f.prunes(name, e.nameAt[s]) {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
