package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// These tests pin the Listing a query reads in place to traceNaive's
// paths: its count, its statuses, whether each path passes a device, and
// its equality with other listings, of the same Snapshot and of another
// one whose device table numbers every device (and the discard node)
// differently.

// outOfConfig is a start device no pinned network configures.
const outOfConfig = "ghost"

// assertListingsMatchNaive checks, for every device→host pair of s (and
// an out-of-config start) under every failure of fs (the zero Failure
// included), the Listing against traceNaive's paths: the count and the
// statuses; Passes for every hop, for each of probes and for an unknown
// name; and Equal, both ways, against the unfailed listing of the pair,
// which must hold exactly when the naive paths are the same. Paths must
// name the listing as traceNaive does. When other is set, it is a
// Snapshot over another device table whose naive paths are s's, checked
// per pair without a failure: then each listing must also equal other's
// listing of the pair under the same failure, and equal other's unfailed
// listing exactly when it equals s's.
func assertListingsMatchNaive(t *testing.T, s, other *Snapshot, fs []Failure, probes []string) {
	t.Helper()
	starts := append(slices.Clone(s.Devices()), outOfConfig)
	probes = append(slices.Clone(probes), DiscardDevice, outOfConfig, "no-such-device")
	for _, dst := range s.Hosts() {
		for _, src := range starts {
			base, baseWant := s.ListFrom(src, dst), s.traceNaive(src, dst, Failure{})
			if other != nil && !samePaths(other.traceNaive(src, dst, Failure{}), baseWant) {
				t.Fatalf("%s->%s: the two Snapshots' naive paths differ", src, dst)
			}
			for _, f := range fs {
				l, want := s.ListUnderFailure(src, dst, f), s.traceNaive(src, dst, f)
				where := fmt.Sprintf("%s->%s under %v", src, dst, f)
				if f.IsZero() {
					where = fmt.Sprintf("%s->%s", src, dst)
				}
				if l.Len() != len(want) {
					t.Fatalf("%s: Len %d, naive %d paths", where, l.Len(), len(want))
				}
				for i, p := range want {
					if l.Status(i) != p.Status {
						t.Fatalf("%s: path %d status %v, naive %v", where, i, l.Status(i), p.Status)
					}
					for _, h := range p.Hops {
						if !l.Passes(i, h) {
							t.Fatalf("%s: path %d does not pass its hop %s; naive %v", where, i, h, p.Hops)
						}
					}
					for _, d := range probes {
						if got := l.Passes(i, d); got != slices.Contains(p.Hops, d) {
							t.Fatalf("%s: path %d Passes(%s) = %v; naive %v", where, i, d, got, p.Hops)
						}
					}
				}
				if got := l.Paths(); !samePaths(got, want) {
					t.Fatalf("%s: Paths\n got: %v\nwant: %v", where, got, want)
				}
				same := samePaths(want, baseWant)
				if l.Equal(base) != same || base.Equal(l) != same {
					t.Fatalf("%s: Equal to the unfailed listing %v/%v, naive paths equal %v", where, l.Equal(base), base.Equal(l), same)
				}
				if other == nil {
					continue
				}
				if o := other.ListUnderFailure(src, dst, f); !l.Equal(o) || !o.Equal(l) {
					t.Fatalf("%s: not Equal to the other Snapshot's listing %v", where, o.Paths())
				}
				o := other.ListFrom(src, dst)
				if l.Equal(o) != same || o.Equal(l) != same {
					t.Fatalf("%s: Equal to the other Snapshot's unfailed listing %v/%v, naive paths equal %v", where, l.Equal(o), o.Equal(l), same)
				}
			}
		}
	}
}

// withLeadingRouter returns a copy of cfg with one more router, linked to
// nothing, whose name sorts before every other device's: a fresh Build
// numbers every other device one higher, and the discard node too.
func withLeadingRouter(cfg *config.Network) *config.Network {
	out := cfg.Clone()
	out.Add(&config.Device{Hostname: "0-lead", Kind: config.RouterKind})
	return out
}

// corruptByName applies the same FIB corruptions to every Snapshot in
// snaps, by device name: a rewired next hop (a loop or a detour), a
// deleted route, and a Null0 discard next hop, each toward a random host
// from a random router.
func corruptByName(rng *rand.Rand, cfg *config.Network, snaps ...*Snapshot) {
	routers, hosts := cfg.Routers(), cfg.Hosts()
	for m := 0; m < 3; m++ {
		r, h := routers[rng.Intn(len(routers))], hosts[rng.Intn(len(hosts))]
		tgt := routers[rng.Intn(len(routers))]
		for _, s := range snaps {
			pfx := s.Net.HostPrefix[h]
			switch m {
			case 0:
				setRoute(s, r, pfx, &Route{Prefix: pfx, Source: SrcOSPF, NextHops: []NextHop{hopTo(s, tgt, "eth0")}})
			case 1:
				setRoute(s, r, pfx, nil)
			case 2:
				setRoute(s, r, pfx, &Route{Prefix: pfx, Source: SrcStatic, NextHops: []NextHop{hopTo(s, DiscardDevice, "Null0")}})
			}
		}
	}
}

// TestListingsMatchTraceFrom checks every Listing accessor against
// traceNaive on the catalog and on the cap-boundary networks: from every
// device and an out-of-config start toward every host, with no failure,
// a node failure, and a link failure named in both orders. On the
// catalog each network is also simulated with one more device sorting
// first, and the same corruptions (a rewired hop, a deleted route, a
// Null0 next hop) applied to both Snapshots by name, so Equal compares
// listings whose node indices differ everywhere, the discard node's
// included.
func TestListingsMatchTraceFrom(t *testing.T) {
	for _, spec := range netgen.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			s, err := SimulateOpts(cfg, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			other, err := SimulateOpts(withLeadingRouter(cfg), Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(spec.Name))))
			corruptByName(rng, cfg, s, other)
			routers := cfg.Routers()
			l := s.Net.Links[rng.Intn(len(s.Net.Links))]
			fs := []Failure{
				{},
				{Node: routers[rng.Intn(len(routers))]},
				{LinkA: l.A.Device, LinkB: l.B.Device},
				{LinkA: l.B.Device, LinkB: l.A.Device},
			}
			probes := []string{routers[0], routers[len(routers)-1]}
			assertListingsMatchNaive(t, s, other, fs, probes)
		})
	}
	caps := []capCase{diamondCase(t, 8), diamondCase(t, 9)}
	for _, late := range []bool{true, false} {
		for _, loop := range []bool{false, true} {
			caps = append(caps, truncatedCase(t, late, loop))
		}
	}
	for _, c := range caps {
		t.Run(c.name, func(t *testing.T) {
			fs := append([]Failure{{}}, c.failures...)
			devs := c.snap.Devices()
			assertListingsMatchNaive(t, c.snap, nil, fs, []string{devs[0], devs[len(devs)/2]})
		})
	}
}

// TestListingConcurrentStarts reads listings from several goroutines at
// once while they register out-of-config starts and failed devices on
// the same engines: naming such a node (Paths, and Equal across engines)
// and looking one up (Passes) read it under the engine's lock. Run it
// with -race.
func TestListingConcurrentStarts(t *testing.T) {
	snap := chainNet(t)
	hosts := snap.Hosts()
	want := make(map[string][]Path)
	for _, dst := range hosts {
		for _, src := range snap.Devices() {
			want[src+">"+dst] = snap.traceNaive(src, dst, Failure{})
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				dst, next := hosts[k%len(hosts)], hosts[(k+1)%len(hosts)]
				ghost := fmt.Sprintf("ghost-%d-%d", g, k)
				l := snap.ListFrom(ghost, dst)
				alone := []Path{{Hops: []string{ghost}, Status: BlackHoled}}
				if !samePaths(l.Paths(), alone) || !l.Passes(0, ghost) {
					errs <- fmt.Errorf("%s->%s: %v, want [%s] blackholed", ghost, dst, l.Paths(), ghost)
					return
				}
				// Another destination's engine numbers the ghost
				// differently: Equal names both.
				if o := snap.ListFrom(ghost, next); !l.Equal(o) || !o.Equal(l) {
					errs <- fmt.Errorf("%s->%s differs from %s->%s", ghost, dst, ghost, next)
					return
				}
				if f := snap.ListUnderFailure("ha", dst, Failure{Node: ghost + "-down"}); !f.Equal(snap.ListFrom("ha", dst)) {
					errs <- fmt.Errorf("failing unknown %s-down changed ha->%s", ghost, dst)
					return
				}
				for _, src := range snap.Devices() {
					got := snap.ListFrom(src, dst)
					if !samePaths(got.Paths(), want[src+">"+dst]) {
						errs <- fmt.Errorf("%s->%s: %v, want %v", src, dst, got.Paths(), want[src+">"+dst])
						return
					}
					if got.Equal(l) || l.Equal(got) {
						errs <- fmt.Errorf("%s->%s equals the listing from %s", src, dst, ghost)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
