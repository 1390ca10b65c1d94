package nethide

import (
	"testing"

	"confmask/internal/metrics"
	"confmask/internal/netgen"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

func fatTreeTopo(t *testing.T) (*topology.Graph, *sim.Snapshot, []string) {
	t.Helper()
	cfg, err := netgen.FatTree04()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Net.Topology(), snap, cfg.Hosts()
}

func TestObfuscateAddsVirtualLinks(t *testing.T) {
	g, _, _ := fatTreeTopo(t)
	res := Obfuscate(g, Options{Seed: 1})
	if len(res.AddedLinks) == 0 {
		t.Fatal("no virtual links added")
	}
	// Virtual topology is a supergraph of the physical one.
	for _, e := range g.Edges() {
		if !res.Virtual.HasEdge(e.A, e.B) {
			t.Fatalf("physical edge %v missing from virtual topology", e)
		}
	}
	// Every added link is genuinely new and router-to-router.
	for _, e := range res.AddedLinks {
		if g.HasEdge(e.A, e.B) {
			t.Fatalf("added link %v already existed", e)
		}
		if res.Virtual.KindOf(e.A) != topology.Router || res.Virtual.KindOf(e.B) != topology.Router {
			t.Fatalf("added link %v touches a host", e)
		}
	}
}

func TestForwardingTreesDeliver(t *testing.T) {
	g, _, hosts := fatTreeTopo(t)
	res := Obfuscate(g, Options{Seed: 2})
	for _, s := range hosts {
		for _, d := range hosts {
			if s == d {
				continue
			}
			p := res.Path(s, d)
			if p == nil {
				t.Fatalf("no path %s→%s", s, d)
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("bad endpoints %v", p)
			}
			// No transit through other hosts.
			for _, hop := range p[1 : len(p)-1] {
				if res.Virtual.KindOf(hop) == topology.Host {
					t.Fatalf("path %v transits host %s", p, hop)
				}
			}
		}
	}
}

func TestObfuscationBreaksMostPaths(t *testing.T) {
	g, orig, hosts := fatTreeTopo(t)
	res := Obfuscate(g, Options{Seed: 3})
	kept := metrics.ExactlyKeptFraction(orig, res, hosts)
	if kept > 0.3 {
		t.Fatalf("NetHide kept %.0f%% of paths; the paper's comparison expects <30%%", 100*kept)
	}
}

func TestObfuscateDeterministic(t *testing.T) {
	g, _, _ := fatTreeTopo(t)
	a := Obfuscate(g, Options{Seed: 42})
	b := Obfuscate(g, Options{Seed: 42})
	if len(a.AddedLinks) != len(b.AddedLinks) {
		t.Fatal("nondeterministic link count")
	}
	for i := range a.AddedLinks {
		if a.AddedLinks[i] != b.AddedLinks[i] {
			t.Fatal("nondeterministic link selection")
		}
	}
}

func TestObfuscateDoesNotMutateInput(t *testing.T) {
	g, _, _ := fatTreeTopo(t)
	edges := g.NumEdges()
	Obfuscate(g, Options{Seed: 5})
	if g.NumEdges() != edges {
		t.Fatal("physical topology mutated")
	}
}

func TestDataPlaneDisconnected(t *testing.T) {
	g := topology.New()
	g.AddNode("r1", topology.Router)
	g.AddNode("r2", topology.Router)
	g.AddNode("ha", topology.Host)
	g.AddNode("hb", topology.Host)
	_ = g.AddEdge("ha", "r1")
	_ = g.AddEdge("hb", "r2") // r1 and r2 are not connected
	res := Obfuscate(g, Options{Seed: 1, FlipFraction: 0.5})
	ps := res.TraceFrom("ha", "hb")
	if len(ps) != 1 || ps[0].Status != sim.BlackHoled {
		t.Fatalf("expected black hole for disconnected pair, got %v", ps)
	}
}
