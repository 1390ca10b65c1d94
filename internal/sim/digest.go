package sim

import (
	"crypto/sha256"
	"slices"
)

// This file is the memory-bounded fingerprint layer of the data-plane
// engine. A pair's canonical path-set key is the sorted "<status>:<hops>"
// lines joined with "\n". Retaining it as one string per ordered host
// pair would cost O(H²) joined strings whose lengths grow with path count
// and depth. A fingerprint is instead a fixed-size 128-bit digest of
// exactly that byte sequence, which the walker hashes from the hop
// indices of its sorted output without naming a path (sortPathsByKey
// hashes the same bytes from Paths). Equality of digests stands in for
// equality of canonical keys everywhere only equality is needed
// (PairDigests.DiffPairs, DiffForwarding's fallback); explaining a
// difference still reads the exact paths through TraceFrom.
// DiffForwarding, the equivalence check, digests only the destinations
// whose successor graphs differ.
//
// The digest is the first 128 bits of SHA-256 over the canonical key
// bytes. Two distinct path sets collide with probability ~2⁻¹²⁸ per pair
// (~2⁻⁶⁴ birthday bound across any realistic number of compared pairs) —
// far below the failure rates of the hardware the pipeline runs on; see
// DESIGN.md §12 for the soundness argument.

// Digest is a 128-bit fingerprint of a pair's canonical path-set key. The
// zero value is reserved for the empty path set (no trace data), matching
// the empty canonical key.
type Digest [16]byte

// digestOfBytes fingerprints canonical key bytes.
func digestOfBytes(b []byte) Digest {
	if len(b) == 0 {
		return Digest{}
	}
	sum := sha256.Sum256(b)
	var d Digest
	copy(d[:], sum[:16])
	return d
}

// PairDigests is a fingerprint-only data plane: one Digest per ordered
// host pair, stored in a flat dense array (16 bytes per pair, no per-pair
// path or string storage). It answers path-set equality questions at a
// peak heap cost that scales with topology size rather than with H² path
// data; callers that need the actual hop sequences read TraceFrom.
type PairDigests struct {
	hosts []string
	index map[string]int
	// fps[j*len(hosts)+i] is the digest for Pair{Src: hosts[i], Dst:
	// hosts[j]}; diagonal slots stay zero.
	fps []Digest
}

// newPairDigests returns an all-zero digest plane over hosts.
func newPairDigests(hosts []string) *PairDigests {
	pd := &PairDigests{hosts: hosts, index: make(map[string]int, len(hosts)), fps: make([]Digest, len(hosts)*len(hosts))}
	for i, h := range hosts {
		pd.index[h] = i
	}
	return pd
}

// column returns destination hosts[j]'s digests, one per source in hosts
// order (shared with pd).
func (pd *PairDigests) column(j int) []Digest {
	h := len(pd.hosts)
	return pd.fps[j*h : (j+1)*h]
}

// Hosts returns the host list the digests cover (shared; read-only).
func (pd *PairDigests) Hosts() []string { return pd.hosts }

// Digest returns the fingerprint for an ordered pair; ok is false when
// either host is outside the covered set.
func (pd *PairDigests) Digest(src, dst string) (Digest, bool) {
	i, oki := pd.index[src]
	j, okj := pd.index[dst]
	if !oki || !okj {
		return Digest{}, false
	}
	return pd.column(j)[i], true
}

// Equal reports whether two digest planes agree on every ordered pair of
// pd's hosts.
func (pd *PairDigests) Equal(other *PairDigests) bool {
	return len(pd.DiffPairs(other)) == 0
}

// DiffPairs returns the ordered pairs (drawn from pd's hosts) whose
// digests differ, sorted by source, then destination.
func (pd *PairDigests) DiffPairs(other *PairDigests) []Pair {
	var out []Pair
	for j, dst := range pd.hosts {
		for i, src := range pd.hosts {
			if i == j {
				continue
			}
			a := pd.column(j)[i]
			b, ok := other.Digest(src, dst)
			if !ok || a != b {
				out = append(out, Pair{Src: src, Dst: dst})
			}
		}
	}
	sortPairs(out)
	return out
}

// PairDigestsFor computes the fingerprint of every ordered pair drawn
// from hosts without retaining any path: per destination it builds a
// transient successor-graph engine, walks each source, hashes the sorted
// walk and drops it, and releases the engine before moving on. Peak heap
// is bounded by the worker count times one destination's successor graph
// (which scales with topology size) and one source's capped walk, plus
// the flat 16-byte-per-pair result — never by H² materialized paths. Each
// digest is the fingerprint of the path set TraceFrom lists for the pair.
func (s *Snapshot) PairDigestsFor(hosts []string) *PairDigests {
	pd := newPairDigests(hosts)
	forEachIndex(s.traceWorkers(), len(hosts), func(j int) {
		dst := hosts[j]
		e := s.transientEngineFor(dst)
		if e == nil {
			return // unknown destination: zero digests, like TraceFrom's nil
		}
		row := pd.column(j)
		for i, src := range hosts {
			if src != dst {
				row[i] = e.digestFor(src)
			}
		}
	})
	return pd
}

// DiffForwarding returns the ordered pairs drawn from hosts whose path
// sets differ between orig and anon, sorted like PairDigests.DiffPairs
// and identical at any worker count — the strong-functional-equivalence
// check (§5.1) without extracting either data plane.
//
// The two Snapshots need not share a device table: orig's is translated
// into anon's once per call (MapDevices), which is the identity when one
// table extends the other, as a seeded Net's extends its seed's. A
// destination whose longest-prefix-match columns both Snapshots share,
// over one device table (BuildFrom carries columns that way), routes
// alike on both sides and is skipped without reading a route. Otherwise,
// when every node a walk from hosts can visit in orig's successor graph
// has the same kind and the same successor devices, in the same order, in
// anon's (sameSuccessors), every walk from those hosts sees one graph on
// both sides, so the path sets are equal — the maxTracePaths cut and the
// depth bound included, since both are functions of the graph and its
// successor order — and the destination is skipped. Only the remaining
// destinations digest their pairs on both sides and report the pairs
// that differ.
func DiffForwarding(orig, anon *Snapshot, hosts []string) []Pair {
	cols := make([][]Pair, len(hosts))
	m := MapDevices(orig, anon)
	oneTable := m.identity() && len(orig.tab.devices) == len(anon.tab.devices)
	forEachIndex(orig.traceWorkers(), len(hosts), func(j int) {
		dst := hosts[j]
		if oneTable && sharesColumns(orig, anon, dst) {
			return
		}
		eo, ea := orig.transientEngineFor(dst), anon.transientEngineFor(dst)
		if eo != nil && ea != nil && sameSuccessors(eo, ea, hosts, m) {
			return
		}
		for _, src := range hosts {
			if src != dst && eo.digestFor(src) != ea.digestFor(src) {
				cols[j] = append(cols[j], Pair{Src: src, Dst: dst})
			}
		}
	})
	out := slices.Concat(cols...)
	sortPairs(out)
	return out
}

// sharesColumns reports whether a and b resolve every device's route
// toward host dst from the very same columns. Over one device table that
// makes dst's successor graph one graph.
func sharesColumns(a, b *Snapshot, dst string) bool {
	ca, cb := a.lpmChain(dst), b.lpmChain(dst)
	if ca == nil || len(ca) != len(cb) {
		return false
	}
	for k := range ca {
		x, y := a.column(ca[k]), b.column(cb[k])
		if len(x) != len(y) || len(x) > 0 && &x[0] != &y[0] {
			return false
		}
	}
	return true
}

// sameSuccessors reports whether every node of e's successor graph — each
// configured device of e's Snapshot, the discard node, and each of srcs —
// has the same kind and the same successor devices, in the same order, in
// o's graph toward the same destination, m translating e's device indices
// into o's. A device outside o's configured set counts as a black hole
// there, as it does for the walker. It builds both engines, so they must
// be fresh transient engines owned by the caller.
func sameSuccessors(e, o *destEngine, srcs []string, m DeviceMap) bool {
	e.build()
	o.build()
	for i := int32(0); i < e.ndev; i++ {
		ki, ni := e.hops(i)
		kj, nj := blackholeNode, []NextHop(nil)
		if j, ok := m.Map(i); ok {
			kj, nj = o.hops(j)
		}
		if ki != kj || len(ni) != len(nj) {
			return false
		}
		for k, nh := range ni {
			if j, ok := m.Map(nh.Dev); !ok || j != nj[k].Dev {
				return false
			}
		}
	}
	// A source outside e's table is a black hole there, as the discard
	// node is on both sides.
	for _, src := range srcs {
		if _, ok := e.snap.tab.devIdx[src]; ok {
			continue
		}
		if j, ok := o.snap.tab.devIdx[src]; ok {
			if k, _ := o.hops(j); k != blackholeNode {
				return false
			}
		}
	}
	return true
}
