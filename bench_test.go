// The external test package breaks the import cycle bench_test ←
// internal/experiments ← confmask (the incremental benchmark drives the
// public ImportCheckpoint/Anonymize API).
package confmask_test

// This file provides one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus micro-benchmarks for the substrates the
// pipeline is built on.
//
// Each figure benchmark regenerates that figure's data. To keep a default
// `go test -bench=.` run in minutes rather than hours, the per-iteration
// figure benchmarks run on the small-network catalog (Enterprise,
// University, Backbone, FatTree04); the full eight-network reproduction —
// the numbers recorded in EXPERIMENTS.md — is produced by
// `go run ./cmd/confmask-bench`.

import (
	"math/rand"
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/experiments"
	"confmask/internal/kdegree"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

func smallRunner() *experiments.Runner {
	r := experiments.NewRunner(1)
	r.Nets = netgen.SmallCatalog()
	return r
}

func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable2 regenerates Table 2 (network inventory) over the full
// catalog.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(1)
		_, err := r.Table2()
		benchErr(b, err)
	}
}

// BenchmarkFigure5 regenerates the route anonymity measurement.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure5()
		benchErr(b, err)
	}
}

// BenchmarkFigure6 regenerates the topology anonymity measurement.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure6()
		benchErr(b, err)
	}
}

// BenchmarkFigure7 regenerates the clustering coefficient comparison.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure7()
		benchErr(b, err)
	}
}

// BenchmarkFigure8 regenerates the exact path preservation comparison
// against NetHide.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure8()
		benchErr(b, err)
	}
}

// BenchmarkFigure9 regenerates the specification preservation comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure9()
		benchErr(b, err)
	}
}

// BenchmarkFigure10 regenerates the strawman comparison (N_r and U_C).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure10()
		benchErr(b, err)
	}
}

// BenchmarkFigure11 regenerates the k_R → N_r sweep (and Figure 13's U_C
// readings, which come from the same runs).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure11()
		benchErr(b, err)
	}
}

// BenchmarkFigure12 regenerates the k_H → N_r sweep (and Figure 14's U_C
// readings).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure12()
		benchErr(b, err)
	}
}

// BenchmarkFigure15 regenerates the privacy–utility correlation.
func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure15()
		benchErr(b, err)
	}
}

// BenchmarkFigure16 regenerates the running-time comparison.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := smallRunner().Figure16()
		benchErr(b, err)
	}
}

// BenchmarkTable3 regenerates the injected-line breakdown (University
// network; the full grid is produced by cmd/confmask-bench).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := smallRunner()
		_, err := r.Table3()
		benchErr(b, err)
	}
}

// BenchmarkAnonymize measures the end-to-end pipeline per network at the
// default parameters (the quantity behind Fig. 16's ConfMask bars).
func BenchmarkAnonymize(b *testing.B) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg, err := spec.Build()
			benchErr(b, err)
			opts := anonymize.DefaultOptions()
			opts.Seed = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := anonymize.Run(cfg, opts)
				benchErr(b, err)
			}
		})
	}
}

// BenchmarkSimulate measures the control-plane simulator (the Batfish
// substitute) per network.
func BenchmarkSimulate(b *testing.B) {
	for _, spec := range netgen.Catalog() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg, err := spec.Build()
			benchErr(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := sim.Simulate(cfg)
				benchErr(b, err)
			}
		})
	}
}

// BenchmarkSimulateAnonymized measures Build+SimulateNetOpts on anonymized
// outputs, where the fixing loop's and Algorithm 2's distribute-lists make
// the route computation filter-heavy: FatTree08 (no fake links, one
// fixing iteration) and MultiRegion10x30 (fake links and their filters).
// Each network is anonymized once, at the default parameters and seed 1,
// before the timer starts.
func BenchmarkSimulateAnonymized(b *testing.B) {
	for _, name := range []string{"FatTree08", "MultiRegion10x30"} {
		b.Run(name, func(b *testing.B) {
			spec, err := netgen.ByID(name)
			benchErr(b, err)
			cfg, err := spec.Build()
			benchErr(b, err)
			opts := anonymize.DefaultOptions()
			opts.Seed = 1
			anon, _, err := anonymize.Run(cfg, opts)
			benchErr(b, err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, err := sim.Build(anon)
				benchErr(b, err)
				sim.SimulateNetOpts(view, sim.Options{})
			}
		})
	}
}

// parVariants are the worker-pool settings the parallelism benchmarks
// compare: 1 is the plain sequential engine, 0 lets the pool size follow
// GOMAXPROCS, and 4 pins a fixed fan-out so numbers are comparable across
// machines.
var parVariants = []struct {
	name    string
	workers int
}{
	{"seq", 1},
	{"par4", 4},
	{"gomaxprocs", 0},
}

// parNetworks are the two networks the parallelism comparison runs on:
// Backbone is the small BGP+OSPF mix, FatTree08 the largest pure-OSPF
// network and the pipeline's dominant cost in Figure 16.
func parNetworks(b *testing.B) []struct {
	name string
	cfg  *config.Network
} {
	b.Helper()
	backbone, err := netgen.Backbone()
	benchErr(b, err)
	fatTree, err := netgen.FatTree08()
	benchErr(b, err)
	return []struct {
		name string
		cfg  *config.Network
	}{
		{"Backbone", backbone},
		{"FatTree08", fatTree},
	}
}

// BenchmarkSimulateParallelism records sequential-vs-parallel wall clock
// for one full control-plane simulation. Output is byte-identical across
// variants (TestParallelismByteIdentical); only the wall clock moves.
func BenchmarkSimulateParallelism(b *testing.B) {
	for _, net := range parNetworks(b) {
		for _, v := range parVariants {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_, err := sim.SimulateOpts(net.cfg, sim.Options{Parallelism: v.workers})
					benchErr(b, err)
				}
			})
		}
	}
}

// BenchmarkSimulateIncremental measures re-simulating one Net after an
// InvalidateFilters that finds no filter edit: one Build, then
// per-iteration InvalidateFilters + SimulateNet. Simulations are deltas
// over the Net's previous result, so this times an empty delta — the
// filter-independent core reused, every OSPF row and route column carried
// forward, only RIP, EIGRP and BGP reconverged.
// BenchmarkSimulateIncrementalOneDeny times the delta Algorithm 1 and
// Algorithm 2 actually pay, and BenchmarkSimulateParallelism/seq the full
// Build+Simulate cost every round would pay without either saving.
func BenchmarkSimulateIncremental(b *testing.B) {
	for _, net := range parNetworks(b) {
		b.Run(net.name, func(b *testing.B) {
			view, err := sim.Build(net.cfg)
			benchErr(b, err)
			sim.SimulateNet(view) // the full first simulation, as iteration 1 does
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.InvalidateFilters()
				sim.SimulateNet(view)
			}
		})
	}
}

// BenchmarkSimulateIncrementalOneDeny is BenchmarkSimulateIncremental
// with one filter edit per iteration: a deny of one host prefix on one
// router's OSPF interface list, added and removed on alternate
// iterations, so every delta recomputes that prefix's OSPF row and
// rebuilds its route column.
func BenchmarkSimulateIncrementalOneDeny(b *testing.B) {
	for _, net := range parNetworks(b) {
		b.Run(net.name, func(b *testing.B) {
			view, err := sim.Build(net.cfg)
			benchErr(b, err)
			pfx := view.HostPrefix[net.cfg.Hosts()[0]]
			var pl *config.PrefixList
			for _, r := range net.cfg.Routers() {
				d := net.cfg.Device(r)
				if d.OSPF == nil || len(view.LinksOf(r)) == 0 {
					continue
				}
				if d.OSPF.InFilters == nil {
					d.OSPF.InFilters = map[string]string{}
				}
				local, _ := view.LinksOf(r)[0].Local(r)
				d.OSPF.InFilters[local.Iface] = "BENCH-ONE"
				pl = d.EnsurePrefixList("BENCH-ONE")
				break
			}
			if pl == nil {
				b.Fatal("no OSPF router to filter on")
			}
			view.InvalidateFilters()
			sim.SimulateNet(view)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					pl.Deny(pfx)
				} else {
					pl.RemoveDeny(pfx)
				}
				view.InvalidateFilters()
				sim.SimulateNet(view)
			}
		})
	}
}

// BenchmarkAnonymizeParallelism records the end-to-end pipeline wall
// clock at each worker-pool setting on the two reference networks.
func BenchmarkAnonymizeParallelism(b *testing.B) {
	for _, net := range parNetworks(b) {
		for _, v := range parVariants {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				opts := anonymize.DefaultOptions()
				opts.Seed = 1
				opts.Parallelism = v.workers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, err := anonymize.Run(net.cfg, opts)
					benchErr(b, err)
				}
			})
		}
	}
}

// BenchmarkKDegree measures the Liu–Terzi degree anonymization step alone.
func BenchmarkKDegree(b *testing.B) {
	cfg, err := netgen.USCarrier()
	benchErr(b, err)
	snap, err := sim.Simulate(cfg)
	benchErr(b, err)
	topo := snap.Net.Topology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := topo.RouterSubgraph()
		_, err := kdegree.Anonymize(g, 6, rand.New(rand.NewSource(1)))
		benchErr(b, err)
	}
}

// BenchmarkParseRender measures the configuration codec round trip.
func BenchmarkParseRender(b *testing.B) {
	cfg, err := netgen.Enterprise()
	benchErr(b, err)
	texts := cfg.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := config.ParseNetwork(texts)
		benchErr(b, err)
		net.Render()
	}
}

// BenchmarkAblationNoRouteAnonymity isolates Algorithm 1 (route
// equivalence) from Algorithm 2 — the ablation DESIGN.md calls out for the
// cost split between the two route stages.
func BenchmarkAblationNoRouteAnonymity(b *testing.B) {
	cfg, err := netgen.Bics()
	benchErr(b, err)
	opts := anonymize.DefaultOptions()
	opts.Seed = 1
	opts.SkipRouteAnonymity = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := anonymize.Run(cfg, opts)
		benchErr(b, err)
	}
}

// BenchmarkAblationStrawman1 measures the fast-but-leaky baseline on the
// same network for comparison with BenchmarkAblationNoRouteAnonymity.
func BenchmarkAblationStrawman1(b *testing.B) {
	cfg, err := netgen.Bics()
	benchErr(b, err)
	opts := anonymize.DefaultOptions()
	opts.Seed = 1
	opts.Strategy = anonymize.Strawman1
	opts.SkipRouteAnonymity = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := anonymize.Run(cfg, opts)
		benchErr(b, err)
	}
}
