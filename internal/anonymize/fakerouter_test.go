package anonymize

import (
	"testing"

	"confmask/internal/sim"
)

func TestPipelineFakeRouters(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 21
	opts.FakeRouters = 3
	anon, rep := checkPipeline(t, cfg, opts)
	if len(rep.FakeRouters) != 3 {
		t.Fatalf("fake routers = %v", rep.FakeRouters)
	}
	if got := len(anon.Routers()); got != len(cfg.Routers())+3 {
		t.Fatalf("router count %d, want %d", got, len(cfg.Routers())+3)
	}
	// The fake routers must be reachable parts of the IGP (they hold
	// routing tables), yet no real host traffic may traverse them.
	snap, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	fake := map[string]bool{}
	for _, fr := range rep.FakeRouters {
		fake[fr] = true
		if len(snap.FIB(fr)) == 0 {
			t.Fatalf("fake router %s has an empty FIB (conspicuous)", fr)
		}
	}
	hosts := cfg.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			for _, p := range snap.TraceFrom(src, dst) {
				for _, hop := range p.Hops {
					if fake[hop] {
						t.Fatalf("real traffic %s→%s traverses fake router %s: %v", src, dst, hop, p.Hops)
					}
				}
			}
		}
	}
}

func TestPipelineFakeRoutersRIP(t *testing.T) {
	cfg := ripNet(t)
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 8
	opts.FakeRouters = 2
	_, rep := checkPipeline(t, cfg, opts)
	if len(rep.FakeRouters) != 2 {
		t.Fatalf("fake routers = %v", rep.FakeRouters)
	}
}

func TestFakeRoutersRejectBGP(t *testing.T) {
	cfg := bgpNet(t)
	opts := DefaultOptions()
	opts.KR = 2
	opts.FakeRouters = 1
	if _, _, err := Run(cfg, opts); err == nil {
		t.Fatal("expected error: BGP router synthesis is unsupported")
	}
}

func TestFakeRoutersCountedInAnonymity(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 4
	opts.Seed = 33
	opts.FakeRouters = 2
	anon, _, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	// k_R must hold over the graph *including* the fake routers.
	if kd := snap.Net.Topology().MinSameDegreeCount(); kd < opts.KR {
		t.Fatalf("k_d = %d < %d with fake routers present", kd, opts.KR)
	}
}
