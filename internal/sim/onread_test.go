package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"confmask/internal/config"
)

// These tests pin the on-read columns: a Snapshot computes every
// non-destination column on the first read that needs one, once, from
// what its simulation captured, so the answer is the one a fresh
// simulation of the configurations it was simulated from gives, however
// the Net's configurations have moved on since.

// sameRouteValues reports whether two columns hold equal routes device by
// device: both absent, or the same prefix, source, metric and next hops.
func sameRouteValues(a, b []*Route) bool {
	return slices.EqualFunc(a, b, func(x, y *Route) bool {
		if x == nil || y == nil {
			return x == y
		}
		return x.Prefix == y.Prefix && x.Source == y.Source && x.Metric == y.Metric && slices.Equal(x.NextHops, y.NextHops)
	})
}

// denyEverywhere attaches a list at every IGP interface and BGP neighbor
// of every router and makes each deny a random quarter of the network's
// link subnets and host prefixes.
func denyEverywhere(cfg *config.Network, rng *rand.Rand) {
	e := newFilterEditor(cfg, rng)
	for _, pt := range e.points {
		pl := cfg.Device(pt.dev).EnsurePrefixList(e.ensureList(pt))
		for _, p := range e.prefixes {
			if rng.Intn(4) == 0 {
				pl.Deny(p)
			}
		}
	}
}

// onReadNets returns the catalog networks (FatTree08 aside) plus random
// networks on which some routers also run RIP and EIGRP.
func onReadNets(t *testing.T) map[string]*config.Network {
	nets := catalogNets(t)
	for seed := int64(1); seed <= 3; seed++ {
		nets[fmt.Sprintf("mixed-%d", seed)] = mixedSimNet(t, rand.New(rand.NewSource(seed)))
	}
	return nets
}

// requireUnread fails when the Snapshot has already computed its on-read
// columns: the read that follows must be the first.
func requireUnread(t *testing.T, id string, s *Snapshot) {
	t.Helper()
	if s.others != nil {
		t.Fatalf("%s: the on-read columns were computed before the Net moved on", id)
	}
}

// TestOnReadAfterFilterEdits simulates a network, then edits its filters
// in place — denies for link subnets and host prefixes at every
// attachment point — and simulates the Net again after
// InvalidateFilters. The first Snapshot, read only now, must still give
// every device the FIB of a fresh simulation of the unedited network.
func TestOnReadAfterFilterEdits(t *testing.T) {
	for id, cfg := range onReadNets(t) {
		first, err := SimulateOpts(cfg, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := freshFingerprint(t, cfg.Clone())
		denyEverywhere(cfg, rand.New(rand.NewSource(7)))
		if first.Net.InvalidateFilters().Empty() {
			t.Fatalf("%s: the edits changed no deny decision", id)
		}
		SimulateNetOpts(first.Net, Options{Parallelism: 2})
		requireUnread(t, id, first)
		if fibFingerprint(first) != want {
			t.Fatalf("%s: on-read FIBs follow the Net's later filters", id)
		}
	}
}

// TestOnReadAfterTwinsAndBuildFrom is the anonymity stage's shape: the
// simulated configurations gain twin hosts in place, a seeded build
// simulates them, and the new Net's filters are then edited too. The
// first Snapshot, read only now, must still give every device the FIB of
// a fresh simulation of the network before the twins.
func TestOnReadAfterTwinsAndBuildFrom(t *testing.T) {
	for id, cfg := range onReadNets(t) {
		first, err := SimulateOpts(cfg, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := freshFingerprint(t, cfg.Clone())
		addTwins(t, cfg, first.Net, 0)
		view, _, err := BuildFrom(cfg, first)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		SimulateNetOpts(view, Options{Parallelism: 2})
		denyEverywhere(cfg, rand.New(rand.NewSource(11)))
		view.InvalidateFilters()
		SimulateNetOpts(view, Options{Parallelism: 2})
		requireUnread(t, id, first)
		if fibFingerprint(first) != want {
			t.Fatalf("%s: on-read FIBs follow the configurations' later twins or filters", id)
		}
	}
}

// TestOnReadConcurrent reads FIB and Route of one Snapshot from several
// goroutines at once (run it under -race): the on-read columns are
// computed once, and every goroutine gets the same answers.
func TestOnReadConcurrent(t *testing.T) {
	for id, cfg := range catalogNets(t) {
		snap, err := SimulateOpts(cfg, Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := freshFingerprint(t, cfg)
		computed, total := EagerColumns(snap)
		before := OnReadColumns()
		const readers = 4
		fps := make([]string, readers)
		routes := make([][]*Route, readers)
		readRoutes := func(g int) {
			for _, dev := range snap.Devices() {
				for _, p := range snap.tab.prefixes {
					routes[g] = append(routes[g], snap.Route(dev, p))
				}
			}
		}
		var wg sync.WaitGroup
		for g := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Half the readers start with Route, half with FIB.
				if g%2 == 0 {
					readRoutes(g)
					fps[g] = fibFingerprint(snap)
				} else {
					fps[g] = fibFingerprint(snap)
					readRoutes(g)
				}
			}()
		}
		wg.Wait()
		for g := range readers {
			if fps[g] != want {
				t.Fatalf("%s: reader %d's FIBs differ from a fresh simulation", id, g)
			}
			if !slices.Equal(routes[g], routes[0]) {
				t.Fatalf("%s: reader %d's routes differ from reader 0's", id, g)
			}
		}
		if got := OnReadColumns() - before; got != int64(total-computed) {
			t.Fatalf("%s: %d columns computed on read, want the %d non-destination columns once", id, got, total-computed)
		}
	}
}
