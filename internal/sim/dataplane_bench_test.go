package sim

import (
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// The extraction benchmarks compare four ways of producing the same
// DataPlane on the two reference networks:
//
//	naive       per-pair recursive walk (the test oracle, traceNaive)
//	seq         destination-sharded engine, one worker
//	par4 /      destination-sharded engine over the worker pool
//	gomaxprocs
//	dirty       one filter-mutation round re-tracing only dirty destinations
//
// The seq-vs-naive ratio is what walking each destination's successor
// graph by node index buys over a by-name walk with a FIB lookup per hop;
// dirty-vs-seq is the per-round win of strawman 2's fixing loop.

func benchNetworks(b *testing.B) []struct {
	name string
	cfg  *config.Network
} {
	b.Helper()
	backbone, err := netgen.Backbone()
	if err != nil {
		b.Fatal(err)
	}
	fatTree, err := netgen.FatTree08()
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		cfg  *config.Network
	}{
		{"Backbone", backbone},
		{"FatTree08", fatTree},
	}
}

// coldSnapshot shares base's simulated route columns but carries empty
// trace caches, so each iteration pays the full extraction instead of
// reading the per-destination cache of the previous one.
func coldSnapshot(base *Snapshot, workers int) *Snapshot {
	return &Snapshot{Net: base.Net, OSPFDist: base.OSPFDist, tab: base.tab, cols: base.cols, workers: workers}
}

func BenchmarkExtractDataPlane(b *testing.B) {
	for _, net := range benchNetworks(b) {
		cfg := net.cfg
		base, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hosts := cfg.Hosts()

		b.Run(net.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, src := range hosts {
					for _, dst := range hosts {
						if src != dst {
							base.traceNaive(src, dst, Failure{})
						}
					}
				}
			}
		})
		for _, v := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"par4", 4}, {"gomaxprocs", 0}} {
			b.Run(net.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					coldSnapshot(base, v.workers).DataPlaneFor(hosts)
				}
			})
		}

		b.Run(net.name+"/dirty", func(b *testing.B) {
			view, err := Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			snap := SimulateNet(view)
			prev := snap.DataPlaneFor(hosts)
			gw := view.GatewayOf[hosts[0]]
			d := cfg.Device(gw)
			if len(d.Interfaces) == 0 {
				b.Skip("gateway has no interfaces")
			}
			iface := d.Interfaces[0].Name
			pfx := view.HostPrefix[hosts[0]]
			if !attachIGPDeny(d, iface, pfx) {
				b.Skipf("gateway %s runs no IGP", gw)
			}
			d.PrefixList("TST-" + iface).RemoveDeny(pfx)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Toggle one deny so every round carries exactly one dirty
				// destination, like a fixing-loop iteration.
				if i%2 == 0 {
					d.EnsurePrefixList("TST-" + iface).Deny(pfx)
				} else {
					d.PrefixList("TST-" + iface).RemoveDeny(pfx)
				}
				diff := view.InvalidateFilters()
				next := SimulateNetOpts(view, Options{Parallelism: 1})
				b.StartTimer()
				prev = next.DataPlaneForDirty(hosts, prev, diff)
			}
		})
	}
}
