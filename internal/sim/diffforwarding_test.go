package sim

import (
	"math/rand"
	"slices"
	"testing"

	"confmask/internal/netgen"
)

// assertDiffForwarding checks DiffForwarding against the traced pair diff
// of the same two Snapshots and returns the pairs it reported.
func assertDiffForwarding(t *testing.T, a, b *Snapshot, hosts []string) []Pair {
	t.Helper()
	got := DiffForwarding(a, b, hosts)
	want := tracedDiff(a, b, hosts)
	if !slices.Equal(got, want) {
		t.Fatalf("DiffForwarding = %v\ntracedDiff     = %v", got, want)
	}
	return got
}

// sameSuccessorsToward runs sameSuccessors on fresh engines toward dst.
func sameSuccessorsToward(a, b *Snapshot, dst string, hosts []string) bool {
	return sameSuccessors(a.transientEngineFor(dst), b.transientEngineFor(dst), hosts)
}

// TestDiffForwardingMatchesDiffPairs pins DiffForwarding to the traced
// pair diff on every catalog network at Parallelism 1 and 4: against
// an independent simulation of itself (no pair may differ), against a copy
// with one route on a host's path deleted (some pair must differ), and
// against a copy with randomly corrupted FIBs. Identical networks must
// never reach the digest fallback.
func TestDiffForwardingMatchesDiffPairs(t *testing.T) {
	for ci, spec := range netgen.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			for _, par := range []int{1, 4} {
				opts := Options{Parallelism: par}
				orig, err := SimulateOpts(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := SimulateOpts(cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				hosts := orig.Hosts()
				if d := assertDiffForwarding(t, orig, twin, hosts); len(d) != 0 {
					t.Fatalf("par %d: a network differs from itself: %v", par, d)
				}
				for _, dst := range hosts {
					if !sameSuccessorsToward(orig, twin, dst, hosts) {
						t.Fatalf("par %d: identical networks fell back to digests toward %s", par, dst)
					}
				}

				src, dst := hosts[1], hosts[0]
				hop := orig.TraceFrom(src, dst)[0].Hops[1]
				edit := SimulateNetOpts(twin.Net, opts)
				setRoute(edit, hop, edit.Net.HostPrefix[dst], nil)
				if d := assertDiffForwarding(t, orig, edit, hosts); !slices.Contains(d, Pair{Src: src, Dst: dst}) {
					t.Fatalf("par %d: deleting %s's route toward %s went unreported: %v", par, hop, dst, d)
				}

				corrupt := SimulateNetOpts(twin.Net, opts)
				corruptFIBs(corrupt, rng)
				assertDiffForwarding(t, orig, corrupt, hosts)
			}
		})
	}
}

// TestDiffForwardingUnreachedRewire rewires the route toward h2 at a stub
// router no host's walk passes through: the successor graphs differ, so
// the destination falls back to digests, but every host's path set is
// unchanged and nothing may be reported.
func TestDiffForwardingUnreachedRewire(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3")
	b.Link("r1", "r2")
	b.Link("r1", "r3")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	anon := SimulateNetOpts(orig.Net, Options{Parallelism: 1})
	rewire(t, anon, "h2", map[string][]string{"r3": {"r3"}})
	hosts := orig.Hosts()
	if sameSuccessorsToward(orig, anon, "h2", hosts) {
		t.Fatal("rewired graph reported equal; the case does not reach the digest fallback")
	}
	if d := assertDiffForwarding(t, orig, anon, hosts); len(d) != 0 {
		t.Fatalf("unreached rewire reported %v", d)
	}
}

// TestDiffForwardingSuccessorOrder compares the cap-boundary networks of
// cap_test.go whose T forwards to the same two successors in opposite
// orders. The successor sets agree at every device, but maxTracePaths cuts
// T's suffixes in DFS order, so the capped path sets from hs differ: a
// check that compared successor sets instead of sequences would skip the
// destination and miss the difference.
func TestDiffForwardingSuccessorOrder(t *testing.T) {
	for _, loop := range []bool{false, true} {
		late, early := truncatedCase(t, true, loop), truncatedCase(t, false, loop)
		hosts := late.snap.Hosts()
		d := assertDiffForwarding(t, late.snap, early.snap, hosts)
		if !slices.Contains(d, Pair{Src: "hs", Dst: "hd"}) {
			t.Fatalf("%s vs %s: reordered successors went unreported: %v", late.name, early.name, d)
		}
	}
}
