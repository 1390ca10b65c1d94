package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// fibFingerprint canonically serializes every device's FIB so two
// snapshots can be compared for exact equality. Next hops print by name,
// as "{device iface}", so Snapshots with differently ordered device
// tables compare alike.
func fibFingerprint(snap *Snapshot) string {
	names := slices.Clone(snap.Devices())
	sort.Strings(names)
	var b strings.Builder
	type namedHop struct{ Device, Iface string }
	for _, n := range names {
		fib := snap.FIB(n)
		for _, p := range fib.Prefixes() {
			rt := fib[p]
			hops := make([]namedHop, len(rt.NextHops))
			for i, nh := range rt.NextHops {
				hops[i].Device, hops[i].Iface = snap.NextHopNames(nh)
			}
			fmt.Fprintf(&b, "%s %v %v %d %v\n", n, p, rt.Source, rt.Metric, hops)
		}
	}
	return b.String()
}

func catalogNets(t *testing.T) map[string]*config.Network {
	t.Helper()
	out := make(map[string]*config.Network)
	for _, s := range netgen.Catalog() {
		// The fat-trees dominate runtime; FatTree04 alone exercises the
		// same code paths.
		if s.ID == "H" {
			continue
		}
		cfg, err := s.Build()
		if err != nil {
			t.Fatalf("build %s: %v", s.ID, err)
		}
		out[s.ID] = cfg
	}
	return out
}

// TestParallelMatchesSequential: the worker-pool fan-out must be
// invisible in the result — every FIB identical to the sequential run,
// for every catalog network.
func TestParallelMatchesSequential(t *testing.T) {
	for id, cfg := range catalogNets(t) {
		seq, err := SimulateOpts(cfg, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := fibFingerprint(seq)
		for _, workers := range []int{2, 4, 7} {
			par, err := SimulateOpts(cfg, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if got := fibFingerprint(par); got != want {
				t.Fatalf("%s: parallelism=%d FIBs differ from sequential", id, workers)
			}
		}
	}
}

// TestConcurrentSimulateNet drives two hazards under -race: concurrent
// SimulateNet calls on independent Nets (the confmaskd worker-pool
// shape), and concurrent calls on the SAME Net (core built once via
// sync.Once, deny cache read-only).
func TestConcurrentSimulateNet(t *testing.T) {
	cfg, err := netgen.ByID("C") // Backbone: OSPF + BGP
	if err != nil {
		t.Fatal(err)
	}
	net1, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Simulate(net1)
	if err != nil {
		t.Fatal(err)
	}
	want := fibFingerprint(ref)

	// Independent Nets in parallel.
	var wg sync.WaitGroup
	results := make([]string, 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfgI, err := cfg.Build()
			if err != nil {
				t.Errorf("build: %v", err)
				return
			}
			n, err := Build(cfgI)
			if err != nil {
				t.Errorf("Build: %v", err)
				return
			}
			results[i] = fibFingerprint(SimulateNetOpts(n, Options{Parallelism: 3}))
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Fatalf("independent run %d diverged", i)
		}
	}

	// Same Net from several goroutines.
	shared, err := Build(net1)
	if err != nil {
		t.Fatal(err)
	}
	sameResults := make([]string, 4)
	for i := range sameResults {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sameResults[i] = fibFingerprint(SimulateNetOpts(shared, Options{Parallelism: 2}))
		}(i)
	}
	wg.Wait()
	for i, got := range sameResults {
		if got != want {
			t.Fatalf("shared-net run %d diverged", i)
		}
	}
}

// TestInvalidateFiltersMatchesRebuild: after a filters-only mutation,
// InvalidateFilters + SimulateNet must equal a full Build + Simulate —
// the contract Algorithm 1's incremental loop rests on.
func TestInvalidateFiltersMatchesRebuild(t *testing.T) {
	for id, cfg := range catalogNets(t) {
		view, err := Build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		SimulateNet(view) // warm the cached core

		// Deny one advertised prefix at one router's first interface via
		// each configured IGP — the same mutation Algorithm 1 performs.
		mutated := false
		for _, r := range cfg.Routers() {
			d := cfg.Device(r)
			var iface string
			for _, i := range d.Interfaces {
				if i.Addr.IsValid() {
					iface = i.Name
					break
				}
			}
			if iface == "" {
				continue
			}
			var filters map[string]string
			switch {
			case d.OSPF != nil:
				if d.OSPF.InFilters == nil {
					d.OSPF.InFilters = map[string]string{}
				}
				filters = d.OSPF.InFilters
			case d.RIP != nil:
				if d.RIP.InFilters == nil {
					d.RIP.InFilters = map[string]string{}
				}
				filters = d.RIP.InFilters
			case d.EIGRP != nil:
				if d.EIGRP.InFilters == nil {
					d.EIGRP.InFilters = map[string]string{}
				}
				filters = d.EIGRP.InFilters
			default:
				continue
			}
			filters[iface] = "TEST-DENY"
			for _, h := range cfg.Hosts() {
				hd := cfg.Device(h)
				for _, i := range hd.Interfaces {
					if i.Addr.IsValid() {
						d.EnsurePrefixList("TEST-DENY").Deny(i.Addr.Masked())
						mutated = true
					}
				}
				break
			}
			break
		}
		if !mutated {
			continue
		}

		view.InvalidateFilters()
		incremental := fibFingerprint(SimulateNet(view))

		fresh, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if incremental != fibFingerprint(fresh) {
			t.Fatalf("%s: incremental filter update diverged from full rebuild", id)
		}
	}
}
