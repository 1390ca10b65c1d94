package sim

import (
	"math/rand"
	"slices"
	"testing"

	"confmask/internal/netgen"
)

// tracedDigests is the reference digest plane: every ordered pair's
// sortPathsByKey fingerprint over its TraceFrom listing.
func tracedDigests(s *Snapshot, hosts []string) *PairDigests {
	pd := newPairDigests(hosts)
	for j, dst := range hosts {
		for i, src := range hosts {
			if src != dst {
				_, pd.column(j)[i] = sortPathsByKey(s.TraceFrom(src, dst))
			}
		}
	}
	return pd
}

// TestPairDigestsMatchDataPlane pins the digest-only extraction path
// against the path listings: on every evaluation network, PairDigestsFor
// (transient engines, no path materialization) must produce exactly the
// sortPathsByKey fingerprint of every ordered pair's TraceFrom listing,
// which the naive-walker tests pin to traceNaive.
func TestPairDigestsMatchDataPlane(t *testing.T) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4} {
				snap, err := SimulateOpts(cfg, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				hosts := snap.Hosts()
				pd := snap.PairDigestsFor(hosts)
				ref := tracedDigests(snap, hosts)
				for _, src := range hosts {
					for _, dst := range hosts {
						if src == dst {
							continue
						}
						got, ok := pd.Digest(src, dst)
						if !ok {
							t.Fatalf("par %d: pair %s->%s missing from PairDigests", par, src, dst)
						}
						if want, _ := ref.Digest(src, dst); got != want {
							t.Fatalf("par %d: pair %s->%s digest %x != traced %x", par, src, dst, got, want)
						}
					}
				}
				if !pd.Equal(ref) {
					t.Fatalf("par %d: PairDigests not Equal to the traced digests", par)
				}
				if diff := pd.DiffPairs(ref); len(diff) != 0 {
					t.Fatalf("par %d: unexpected digest diff %v", par, diff)
				}
			}
		})
	}
}

// TestPairDigestsCorruptedFIBs exercises the digest path on corrupted
// FIBs: with forwarding loops and black holes, PairDigestsFor must digest
// every pair as sortPathsByKey does its TraceFrom listing.
func TestPairDigestsCorruptedFIBs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		cfg := randomSimNet(t, netgen.OSPF, rng)
		snap, err := SimulateOpts(cfg, Options{Parallelism: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		corruptFIBs(snap, rng)
		hosts := snap.Hosts()
		pd := snap.PairDigestsFor(hosts)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				got, _ := pd.Digest(src, dst)
				if _, want := sortPathsByKey(snap.TraceFrom(src, dst)); got != want {
					t.Fatalf("trial %d: pair %s->%s digest mismatch", trial, src, dst)
				}
			}
		}
	}
}

// TestPairDigestsDiffPairsMatchesDataPlane checks the digest diff against
// the traced reference diff across two genuinely different snapshots.
func TestPairDigestsDiffPairsMatchesDataPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSimNet(t, netgen.OSPF, rng)
	snapA, err := SimulateOpts(a, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := SimulateOpts(a, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	corruptFIBs(snapB, rng)
	hosts := snapA.Hosts()
	wantDiff := tracedDiff(snapA, snapB, hosts)
	gotDiff := snapA.PairDigestsFor(hosts).DiffPairs(snapB.PairDigestsFor(hosts))
	if len(gotDiff) != len(wantDiff) {
		t.Fatalf("digest diff %d pairs, traced diff %d pairs", len(gotDiff), len(wantDiff))
	}
	for i := range gotDiff {
		if gotDiff[i] != wantDiff[i] {
			t.Fatalf("diff[%d] = %v, want %v", i, gotDiff[i], wantDiff[i])
		}
	}
	if eq := snapA.PairDigestsFor(hosts).Equal(snapB.PairDigestsFor(hosts)); eq != (len(wantDiff) == 0) {
		t.Fatalf("Equal = %v inconsistent with %d differing pairs", eq, len(wantDiff))
	}
}

// corruptFIBs injects loops and black holes the way the engine tests do:
// random next-hop rewrites between routers plus dropped routes.
func corruptFIBs(snap *Snapshot, rng *rand.Rand) {
	devs := snap.Devices()
	var routers []string
	for _, d := range devs {
		if len(snap.FIB(d)) > 0 {
			routers = append(routers, d)
		}
	}
	for _, d := range routers {
		for pfx, rt := range snap.FIB(d) {
			switch rng.Intn(6) {
			case 0: // rewrite a next hop to a random router → possible loop
				if len(rt.NextHops) > 0 {
					nh := rt.NextHops[rng.Intn(len(rt.NextHops))]
					nh.Dev, _ = snap.Device(routers[rng.Intn(len(routers))])
					c := *rt
					c.NextHops = slices.Clone(rt.NextHops)
					c.NextHops[rng.Intn(len(rt.NextHops))] = nh
					setRoute(snap, d, pfx, &c)
				}
			case 1: // drop the route → black hole
				setRoute(snap, d, pfx, nil)
			}
		}
	}
}

// prefixNamesNet is r0 fanning out over three equal-cost routers named
// r1, r10 and "r1>a" to r2. The name r1 is a prefix of the other two, so
// the canonical key order, "…r0>r10>…" then "…r0>r1>a>…" then
// "…r0>r1>r2…", differs from comparing hop names one by one.
func prefixNamesNet(t *testing.T) *Snapshot {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r0")
	b.Router("r2")
	for _, mid := range []string{"r1", "r10", "r1>a"} {
		b.Router(mid)
		b.Link("r0", mid)
		b.Link(mid, "r2")
	}
	b.Host("hs", "r0")
	b.Host("hd", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWalkDigestsMatchSortedKeys pins the digests the walker hashes
// straight from hop indices (digestFor, behind PairDigestsFor and
// DiffForwarding's fallback) and its canonical order (TraceFrom) to the
// reference: sortPathsByKey over the same paths, which sorts and hashes
// Path.Key strings. It runs from every device toward every host on the
// catalog networks, the cap-boundary networks and a network whose hop
// names are prefixes of one another.
func TestWalkDigestsMatchSortedKeys(t *testing.T) {
	snaps := map[string]*Snapshot{"prefix-names": prefixNamesNet(t)}
	for _, spec := range netgen.Catalog() {
		cfg, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if snaps[spec.Name], err = Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	cases := []capCase{diamondCase(t, 8), diamondCase(t, 9)}
	for _, late := range []bool{true, false} {
		for _, loop := range []bool{false, true} {
			cases = append(cases, truncatedCase(t, late, loop))
		}
	}
	for _, c := range cases {
		snaps[c.name] = c.snap
	}
	ecmp := 0
	for name, snap := range snaps {
		t.Run(name, func(t *testing.T) {
			for _, dst := range snap.Hosts() {
				e := snap.transientEngineFor(dst)
				for _, src := range snap.Devices() {
					got := snap.TraceFrom(src, dst)
					sorted, want := sortPathsByKey(got)
					if !samePaths(got, sorted) {
						t.Fatalf("TraceFrom(%s, %s) is not in key order:\n got: %v\nwant: %v", src, dst, got, sorted)
					}
					if d := e.digestFor(src); d != want {
						t.Fatalf("digestFor(%s) toward %s = %x, want %x", src, dst, d, want)
					}
					if len(got) > 1 {
						ecmp++
					}
				}
			}
		})
	}
	if ecmp == 0 {
		t.Fatal("no source has more than one path: the order is never tested")
	}
	got := snaps["prefix-names"].TraceFrom("hs", "hd")
	want := [][]string{{"hs", "r0", "r10", "r2", "hd"}, {"hs", "r0", "r1>a", "r2", "hd"}, {"hs", "r0", "r1", "r2", "hd"}}
	if len(got) != len(want) {
		t.Fatalf("prefix-names: %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Hops, want[i]) {
			t.Fatalf("prefix-names path %d = %v, want %v", i, got[i].Hops, want[i])
		}
	}
}

// BenchmarkExtractDigestsFatTree08 measures digest-only extraction on
// FatTree08 (64 hosts, 4032 ordered pairs) — the memory-bounded path.
func BenchmarkExtractDigestsFatTree08(b *testing.B) {
	cfg, err := netgen.FatTree08()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := snap.Hosts()
	b.ReportAllocs()
	b.ResetTimer()
	// PairDigestsFor uses transient engines, so every iteration re-does
	// the full per-destination analysis — unlike TraceFrom, which would
	// serve iterations 2..N from the Snapshot's engine cache.
	for i := 0; i < b.N; i++ {
		_ = snap.PairDigestsFor(hosts)
	}
}

// BenchmarkSortPathsByKeyFatTree08 measures the canonical sort +
// fingerprint on real FatTree08 path sets; the digest path hashes through
// one exactly-sized buffer instead of retaining a joined key string.
func BenchmarkSortPathsByKeyFatTree08(b *testing.B) {
	cfg, err := netgen.FatTree08()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := snap.Hosts()
	var sets [][]Path
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst && len(sets) < 256 {
				sets = append(sets, snap.TraceFrom(src, dst))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sortPathsByKey(sets[i%len(sets)])
	}
}
