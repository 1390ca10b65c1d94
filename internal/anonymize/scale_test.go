package anonymize

import (
	"fmt"
	"testing"
	"time"

	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// TestPartitionPathParallelismIdentity pins the tentpole invariant on the
// partition-parallel topology path: for a network above partitionMinRouters
// (MultiRegion10x30, 300 routers — Partition splits it into its 10 regions
// plus the backbone hubs) the anonymized output is byte-identical at any
// Options.Parallelism. Skipped under -short.
func TestPartitionPathParallelismIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("partition-path identity test skipped in short mode")
	}
	cfg, err := netgen.MultiRegion10x30()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.Routers()); n < partitionMinRouters {
		t.Fatalf("MultiRegion10x30 has %d routers, below the partition gate %d", n, partitionMinRouters)
	}
	var want map[string]string
	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Seed = 1
		opts.Parallelism = par
		anon, _, err := Run(cfg, opts)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		got := anon.Render()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("Parallelism=%d: %d devices vs %d", par, len(got), len(want))
		}
		for name, text := range want {
			if got[name] != text {
				t.Fatalf("Parallelism=%d: device %s renders differently", par, name)
			}
		}
	}
}

// TestPipelineLargeNetworks runs the full pipeline on every Table 2
// evaluation network at the paper's default parameters and verifies
// functional equivalence and k-anonymity at scale. Skipped under -short.
func TestPipelineLargeNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("large-network pipeline test skipped in short mode")
	}
	for _, spec := range netgen.Catalog() {
		spec := spec
		t.Run(spec.ID+"-"+spec.Name, func(t *testing.T) {
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Seed = 1
			start := time.Now()
			anon, rep, err := Run(cfg, opts)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			t.Logf("total=%v pre=%v topo=%v equiv=%v(iters=%d filters=%d) anon=%v(filters=%d) fakeEdges=%d UC=%.3f",
				time.Since(start), rep.Timing.Preprocess, rep.Timing.Topology,
				rep.Timing.RouteEquiv, rep.EquivIterations, rep.EquivFilters,
				rep.Timing.RouteAnon, rep.AnonFilters, len(rep.FakeEdges), rep.UC)

			anonSnap, err := sim.Simulate(anon)
			if err != nil {
				t.Fatal(err)
			}
			if kd := anonSnap.Net.Topology().MinSameDegreeCount(); kd < opts.KR {
				t.Fatalf("k_d = %d < %d", kd, opts.KR)
			}
			origSnap, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hosts := cfg.Hosts()
			if diffs := origSnap.PairDigestsFor(hosts).DiffPairs(anonSnap.PairDigestsFor(hosts)); len(diffs) != 0 {
				t.Fatalf("functional equivalence violated for %d pairs (first %v)", len(diffs), diffs[0])
			}
		})
	}
}

// ringNet builds a uniform-degree ring of n routers with hosts spread on
// distinct routers: above the partition gate in size, but hub-free (the
// hub threshold is 3× the ~2 average degree, which no router reaches),
// so kdegree.Partition returns nil and the partition-parallel topology
// path must take its global fallback.
func ringNet(t *testing.T, n, hosts int) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.OSPF)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%03d", i)
		b.Router(names[i])
	}
	for i := range names {
		b.Link(names[i], names[(i+1)%n])
	}
	for i := 0; i < hosts; i++ {
		b.Host(fmt.Sprintf("h%d", i), names[i*(n/hosts)])
	}
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestAnonymityFallbackParallelismIdentity runs the full pipeline over
// the hub-free ring at Parallelism 1 and 4 with p = 0.5: output must be
// byte-identical, pinning that neither the topology stage's global
// fallback nor the repair loop's index-sharded delivery checks leak into
// the result.
func TestAnonymityFallbackParallelismIdentity(t *testing.T) {
	cfg := ringNet(t, partitionMinRouters+10, 6)
	assertParallelismIdentity(t, cfg, 0.5)
}

// TestFatTreeParallelismIdentity pins workers=1 vs workers=N
// byte-identity on the fat-trees, whose repair rounds check many dirty
// fake hosts per round across the workers: FatTree08 always, FatTree16
// — the S1 scale network — unless -short.
func TestFatTreeParallelismIdentity(t *testing.T) {
	t.Run("FatTree08", func(t *testing.T) {
		cfg, err := netgen.FatTree08()
		if err != nil {
			t.Fatal(err)
		}
		assertParallelismIdentity(t, cfg, 0.1)
	})
	t.Run("FatTree16", func(t *testing.T) {
		if testing.Short() {
			t.Skip("FatTree16 parallelism identity skipped in short mode")
		}
		cfg, err := netgen.FatTree16()
		if err != nil {
			t.Fatal(err)
		}
		assertParallelismIdentity(t, cfg, 0.1)
	})
}

// assertParallelismIdentity anonymizes cfg at Parallelism 1 and 4 with
// the given noise probability and fails on any rendered-output
// difference.
func assertParallelismIdentity(t *testing.T, cfg *config.Network, noiseP float64) {
	t.Helper()
	var want map[string]string
	for _, par := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Seed = 1
		opts.NoiseP = noiseP
		opts.Parallelism = par
		anon, _, err := Run(cfg, opts)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		got := anon.Render()
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("Parallelism=%d: %d devices vs %d", par, len(got), len(want))
		}
		for name, text := range want {
			if got[name] != text {
				t.Fatalf("Parallelism=%d: device %s renders differently", par, name)
			}
		}
	}
}
