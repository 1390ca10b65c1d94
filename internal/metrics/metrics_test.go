package metrics

import (
	"math"
	"testing"

	"confmask/internal/netgen"
	"confmask/internal/sim"
)

func delivered(hops ...string) sim.Path {
	return sim.Path{Hops: hops, Status: sim.Delivered}
}

// pathTable is a spec.PathOracle over a fixed table of host pairs; a pair
// it does not list has no paths.
type pathTable map[sim.Pair][]sim.Path

func (pt pathTable) TraceFrom(src, dst string) []sim.Path { return pt[sim.Pair{Src: src, Dst: dst}] }

// hostsOf returns the hosts a gateway map names.
func hostsOf(gw map[string]string) []string {
	var out []string
	for h := range gw {
		out = append(out, h)
	}
	return out
}

func TestComputeRouteAnonymityBasic(t *testing.T) {
	dp := pathTable{
		// Real host pair and its fake twin take different paths between
		// the same edge routers r1→r9.
		{Src: "h1", Dst: "h2"}:     {delivered("h1", "r1", "r5", "r9", "h2")},
		{Src: "h1", Dst: "h2-fk1"}: {delivered("h1", "r1", "r6", "r9", "h2-fk1")},
		// A pair on a single shared gateway is ignored.
		{Src: "h3", Dst: "h4"}: {delivered("h3", "r2", "h4")},
	}
	gw := map[string]string{"h1": "r1", "h2": "r9", "h2-fk1": "r9", "h3": "r2", "h4": "r2"}
	got := ComputeRouteAnonymity(dp, hostsOf(gw), gw)
	if got.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", got.Pairs)
	}
	if got.Min != 2 || got.Avg != 2 {
		t.Fatalf("N_r = min %d avg %v, want 2/2", got.Min, got.Avg)
	}
}

func TestComputeRouteAnonymityRepresentativePath(t *testing.T) {
	// One host pair with a large ECMP set must count as ONE observed
	// path, not len(ECMP) paths.
	dp := pathTable{
		{Src: "h1", Dst: "h2"}: {
			delivered("h1", "r1", "ra", "r9", "h2"),
			delivered("h1", "r1", "rb", "r9", "h2"),
			delivered("h1", "r1", "rc", "r9", "h2"),
		},
	}
	gw := map[string]string{"h1": "r1", "h2": "r9"}
	got := ComputeRouteAnonymity(dp, hostsOf(gw), gw)
	if got.Min != 1 || got.Avg != 1 {
		t.Fatalf("ECMP fan-out leaked into N_r: %+v", got)
	}
}

func TestComputeRouteAnonymityIgnoresFailures(t *testing.T) {
	dp := pathTable{
		{Src: "h1", Dst: "h2"}: {{Hops: []string{"h1", "r1"}, Status: sim.BlackHoled}},
	}
	gw := map[string]string{"h1": "r1", "h2": "r9"}
	got := ComputeRouteAnonymity(dp, hostsOf(gw), gw)
	if got.Pairs != 0 || got.Min != 0 {
		t.Fatalf("failure paths counted: %+v", got)
	}
}

// TestExactlyKeptFraction measures P_U on the paper's running example
// (Fig. 2a): a network keeps all of its own paths, and a filter that
// diverts h1→h4 onto r1's direct link to r2 loses exactly that one of the
// six ordered pairs.
func TestExactlyKeptFraction(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2").Router("r3").Router("r4")
	b.LinkCost("r1", "r3", 1, 1)
	b.LinkCost("r3", "r2", 1, 1)
	b.Link("r1", "r2")
	b.Link("r2", "r4")
	b.Host("h1", "r1").Host("h2", "r2").Host("h4", "r4")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := cfg.Hosts()
	if got := ExactlyKeptFraction(s, s, hosts); got != 1 {
		t.Fatalf("kept fraction of a network against itself = %v", got)
	}

	cfg2 := cfg.Clone()
	n, err := sim.Build(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := n.LinkBetween("r1", "r3").Local("r1")
	r1 := cfg2.Device("r1")
	r1.EnsurePrefixList("F").Deny(n.HostPrefix["h4"])
	r1.OSPF.InFilters[local.Iface] = "F"
	s2, err := sim.Simulate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ExactlyKeptFraction(s, s2, hosts); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("kept fraction = %v, want 5/6", got)
	}

	// Path sets compare as sets: the order an oracle lists them in does
	// not matter, a missing or extra path does.
	ab := []sim.Path{delivered("h1", "ra", "h2"), delivered("h1", "rb", "h2")}
	ba := []sim.Path{ab[1], ab[0]}
	orig := pathTable{{Src: "h1", Dst: "h2"}: ab, {Src: "h2", Dst: "h1"}: ab}
	anon := pathTable{{Src: "h1", Dst: "h2"}: ba, {Src: "h2", Dst: "h1"}: ab[:1]}
	if got := ExactlyKeptFraction(orig, anon, []string{"h1", "h2"}); got != 0.5 {
		t.Fatalf("kept fraction = %v, want 1/2", got)
	}
	if got := ExactlyKeptFraction(orig, anon, nil); got != 1 {
		t.Fatalf("kept fraction over no pairs = %v, want 1", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if r := Pearson(x, []float64{2, 4, 6, 8}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive r = %v", r)
	}
	if r := Pearson(x, []float64{8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative r = %v", r)
	}
	if r := Pearson(x, []float64{5, 5, 5, 5}); r != 0 {
		t.Fatalf("constant sample r = %v", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Fatalf("mismatched lengths r = %v", r)
	}
	// Symmetry.
	y := []float64{3, 1, 4, 1}
	if Pearson(x, y) != Pearson(y, x) {
		t.Fatal("Pearson not symmetric")
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	got := Quantiles(s, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 2.5 || got[2] != 4 {
		t.Fatalf("quantiles = %v", got)
	}
	if out := Quantiles(nil, 0.5); out[0] != 0 {
		t.Fatalf("empty sample quantile = %v", out)
	}
}

func TestGatewaysWithFakes(t *testing.T) {
	view := &sim.Net{GatewayOf: map[string]string{"h1": "r1", "h1-fk1": "r1"}}
	got := GatewaysWithFakes(view)
	if got["h1"] != "r1" || got["h1-fk1"] != "r1" {
		t.Fatalf("gateways = %v", got)
	}
}
