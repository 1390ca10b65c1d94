package sim

import (
	"math/rand"
	"slices"
	"testing"

	"confmask/internal/netgen"
)

// TestPairDigestsMatchDataPlane pins the digest-only extraction path
// against the full extraction path: on every evaluation network,
// PairDigestsFor (transient engines, no path materialization) must
// produce exactly the digest the full DataPlane stores for every ordered
// pair — which the naive-walker tests already pin to pathSetKey.
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
				dp := snap.DataPlaneFor(hosts)
				for _, src := range hosts {
					for _, dst := range hosts {
						if src == dst {
							continue
						}
						got, ok := pd.Digest(src, dst)
						if !ok {
							t.Fatalf("par %d: pair %s->%s missing from PairDigests", par, src, dst)
						}
						if want := dp.pairDigest(Pair{Src: src, Dst: dst}); got != want {
							t.Fatalf("par %d: pair %s->%s digest %x != full-extraction %x", par, src, dst, got, want)
						}
					}
				}
				if !pd.Equal(dp.Digests()) {
					t.Fatalf("par %d: PairDigests not Equal to DataPlane-derived digests", par)
				}
				if diff := pd.DiffPairs(dp.Digests()); len(diff) != 0 {
					t.Fatalf("par %d: unexpected digest diff %v", par, diff)
				}
			}
		})
	}
}

// TestPairDigestsLoopFallback exercises the digest path through the
// loop/deep fallback: corrupted FIBs with forwarding loops and black
// holes must digest identically via PairDigestsFor and full extraction.
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
		dp := snap.DataPlaneFor(hosts)
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				got, _ := pd.Digest(src, dst)
				if want := dp.pairDigest(Pair{Src: src, Dst: dst}); got != want {
					t.Fatalf("trial %d: pair %s->%s digest mismatch", trial, src, dst)
				}
			}
		}
	}
}

// TestPairDigestsDiffPairsMatchesDataPlane checks the digest diff against
// the full-plane diff across two genuinely different snapshots.
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
	wantDiff := DiffPairs(snapA.DataPlaneFor(hosts), snapB.DataPlaneFor(hosts), hosts)
	gotDiff := snapA.PairDigestsFor(hosts).DiffPairs(snapB.PairDigestsFor(hosts))
	if len(gotDiff) != len(wantDiff) {
		t.Fatalf("digest diff %d pairs, full diff %d pairs", len(gotDiff), len(wantDiff))
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
					nh.Device = routers[rng.Intn(len(routers))]
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
	// the full per-destination analysis — unlike DataPlaneFor, which would
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
	dp := snap.DataPlaneFor(hosts)
	var sets [][]Path
	for _, ps := range dp.Pairs {
		if len(ps) > 0 {
			sets = append(sets, ps)
		}
		if len(sets) == 256 {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sortPathsByKey(sets[i%len(sets)])
	}
}
