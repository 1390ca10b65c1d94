package anonymize

import (
	"math"
	"sort"
	"strings"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// ospfNet builds a 7-router OSPF network with varied costs and 4 hosts.
func ospfNet(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.OSPF)
	for _, r := range []string{"r1", "r2", "r3", "r4", "r5", "r6", "r7"} {
		b.Router(r)
	}
	b.LinkCost("r1", "r2", 1, 1)
	b.LinkCost("r2", "r3", 1, 1)
	b.Link("r3", "r4")
	b.Link("r4", "r5")
	b.Link("r5", "r6")
	b.Link("r6", "r1")
	b.Link("r2", "r7")
	b.Link("r7", "r5")
	b.Host("h1", "r1").Host("h3", "r3").Host("h5", "r5").Host("h7", "r7")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// bgpNet builds a 3-AS network: AS100 (2 routers), AS200 (3), AS300 (2).
func bgpNet(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.BGPOSPF)
	b.RouterAS("a1", 100).RouterAS("a2", 100)
	b.RouterAS("b1", 200).RouterAS("b2", 200).RouterAS("b3", 200)
	b.RouterAS("c1", 300).RouterAS("c2", 300)
	b.Link("a1", "a2")
	b.Link("b1", "b2").Link("b2", "b3").Link("b1", "b3")
	b.Link("c1", "c2")
	b.Link("a2", "b1") // AS100–AS200
	b.Link("b3", "c1") // AS200–AS300
	b.Host("ha", "a1").Host("hb", "b2").Host("hc", "c2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func ripNet(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.RIP)
	for _, r := range []string{"r1", "r2", "r3", "r4", "r5"} {
		b.Router(r)
	}
	b.Link("r1", "r2").Link("r2", "r3").Link("r3", "r4").Link("r4", "r5").Link("r5", "r1")
	b.Host("h1", "r1").Host("h3", "r3").Host("h4", "r4")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// checkPipeline runs Run and asserts the paper's end-to-end guarantees.
func checkPipeline(t *testing.T, cfg *config.Network, opts Options) (*config.Network, *Report) {
	t.Helper()
	anon, rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Functional equivalence: identical host-to-host data planes.
	origSnap, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatalf("simulate original: %v", err)
	}
	anonSnap, err := sim.Simulate(anon)
	if err != nil {
		t.Fatalf("simulate anonymized: %v", err)
	}
	hosts := cfg.Hosts()
	if diffs := origSnap.PairDigestsFor(hosts).DiffPairs(anonSnap.PairDigestsFor(hosts)); len(diffs) != 0 {
		t.Fatalf("functional equivalence violated for %d pairs, first %v", len(diffs), diffs[0])
	}

	// k_R topology anonymity on the anonymized router graph.
	if kd := anonSnap.Net.Topology().MinSameDegreeCount(); kd < opts.KR {
		t.Fatalf("k_d = %d < k_R = %d", kd, opts.KR)
	}

	// Topology preservation: supergraph property.
	origTopo := origSnap.Net.Topology()
	anonTopo := anonSnap.Net.Topology()
	for _, e := range origTopo.Edges() {
		if !anonTopo.HasEdge(e.A, e.B) {
			t.Fatalf("original edge %v missing after anonymization", e)
		}
	}

	// Fake host count.
	wantFakes := (opts.KH - 1) * len(hosts)
	if opts.SkipRouteAnonymity {
		wantFakes = 0
	}
	if len(rep.FakeHosts) != wantFakes {
		t.Fatalf("fake hosts = %d, want %d", len(rep.FakeHosts), wantFakes)
	}

	// Every fake host must be reachable from every real host that can
	// reach its real twin (reachability preservation of Algorithm 2).
	for _, fh := range rep.FakeHosts {
		real := realTwin(fh, hosts)
		for _, src := range hosts {
			if src == real {
				continue
			}
			if deliveredAny(origSnap, src, real) && !deliveredAny(anonSnap, src, fh) {
				t.Fatalf("fake host %s unreachable from %s", fh, src)
			}
		}
	}

	// Add-only: every original configuration line survives verbatim.
	for name, origText := range cfg.Render() {
		anonText := anon.Device(name).Render()
		if !linesSubset(origText, anonText) {
			t.Fatalf("device %s lost original lines", name)
		}
	}

	// Utility bookkeeping.
	if rep.UC <= 0 || rep.UC > 1 {
		t.Fatalf("U_C = %v out of range", rep.UC)
	}
	added := rep.AddedLines
	if added.Interface < 0 || added.Protocol < 0 || added.Filter < 0 || added.Other < 0 {
		t.Fatalf("negative added-line category: %+v", added)
	}
	return anon, rep
}

func deliveredAny(s *sim.Snapshot, src, dst string) bool {
	for _, p := range s.TraceFrom(src, dst) {
		if p.Status == sim.Delivered {
			return true
		}
	}
	return false
}

// linesSubset reports whether every non-separator line of a appears in b
// with at least the same multiplicity.
func linesSubset(a, b string) bool {
	count := func(s string) map[string]int {
		m := make(map[string]int)
		for _, ln := range strings.Split(s, "\n") {
			ln = strings.TrimSpace(ln)
			if ln == "" || ln == "!" {
				continue
			}
			m[ln]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for ln, n := range ca {
		if cb[ln] < n {
			return false
		}
	}
	return true
}

func TestPipelineOSPF(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 7
	_, rep := checkPipeline(t, ospfNet(t), opts)
	if rep.EquivIterations < 1 {
		t.Fatalf("iterations = %d", rep.EquivIterations)
	}
}

func TestPipelineBGP(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 2
	opts.Seed = 11
	checkPipeline(t, bgpNet(t), opts)
}

func TestPipelineRIP(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 3
	checkPipeline(t, ripNet(t), opts)
}

func TestPipelineKH4(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.KH = 4
	opts.Seed = 19
	checkPipeline(t, ospfNet(t), opts)
}

func TestPipelineSkipRouteAnonymity(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.SkipRouteAnonymity = true
	_, rep := checkPipeline(t, ospfNet(t), opts)
	if rep.AnonFilters != 0 || len(rep.FakeHosts) != 0 {
		t.Fatalf("route anonymity ran despite skip: %+v", rep)
	}
}

func TestPipelineStrawman1(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Strategy = Strawman1
	opts.Seed = 5
	_, rep1 := checkPipeline(t, ospfNet(t), opts)

	opts.Strategy = ConfMask
	_, repCM := checkPipeline(t, ospfNet(t), opts)
	// Strawman 1 filters everything on every fake interface: it must
	// inject at least as many equivalence filters as ConfMask.
	if rep1.EquivFilters < repCM.EquivFilters {
		t.Fatalf("strawman1 filters %d < confmask %d", rep1.EquivFilters, repCM.EquivFilters)
	}
	if rep1.EquivIterations != 1 {
		t.Fatalf("strawman1 iterations = %d, want 1", rep1.EquivIterations)
	}
}

func TestPipelineStrawman2(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Strategy = Strawman2
	opts.Seed = 5
	_, rep2 := checkPipeline(t, ospfNet(t), opts)
	if rep2.EquivIterations < 1 {
		t.Fatalf("strawman2 iterations = %d", rep2.EquivIterations)
	}
}

func TestPipelineStrawman2BGP(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 2
	opts.Strategy = Strawman2
	opts.Seed = 23
	checkPipeline(t, bgpNet(t), opts)
}

func TestPipelineDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 42
	a1, _, err := Run(ospfNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := Run(ospfNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	r1 := a1.Render()
	r2 := a2.Render()
	if len(r1) != len(r2) {
		t.Fatalf("device counts differ: %d vs %d", len(r1), len(r2))
	}
	for name, text := range r1 {
		if r2[name] != text {
			t.Fatalf("device %s differs across identical seeds", name)
		}
	}
}

func TestPipelineSeedsDiffer(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 1
	a1, _, err := Run(ospfNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 2
	a2, _, err := Run(ospfNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for name, text := range a1.Render() {
		if a2.Device(name) == nil || a2.Device(name).Render() != text {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical outputs (randomization broken)")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	cfg := ospfNet(t)
	before := cfg.Render()
	opts := DefaultOptions()
	opts.KR = 3
	if _, _, err := Run(cfg, opts); err != nil {
		t.Fatal(err)
	}
	after := cfg.Render()
	for name, text := range before {
		if after[name] != text {
			t.Fatalf("Run mutated input device %s", name)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 100 // more than routers available
	if _, _, err := Run(cfg, opts); err == nil {
		t.Fatal("expected error for k_R > routers")
	}
	opts = DefaultOptions()
	opts.KR = 0
	if _, _, err := Run(cfg, opts); err == nil {
		t.Fatal("expected error for k_R = 0")
	}
	for _, p := range []float64{1.5, -0.1, math.NaN()} {
		opts = DefaultOptions()
		opts.NoiseP = p
		if _, _, err := Run(cfg, opts); err == nil {
			t.Fatalf("expected error for p = %v", p)
		}
	}
}

func TestApplyPII(t *testing.T) {
	cfg := ospfNet(t)
	anon, names := ApplyPII(cfg, []byte("secret-key"))
	if len(names) != len(cfg.Devices) {
		t.Fatalf("name map size %d", len(names))
	}
	// Same device count, all renamed.
	if len(anon.Devices) != len(cfg.Devices) {
		t.Fatalf("device count changed")
	}
	for old, new_ := range names {
		if anon.Device(new_) == nil {
			t.Fatalf("renamed device %s→%s missing", old, new_)
		}
		if old == new_ {
			t.Fatalf("device %s not renamed", old)
		}
	}
	// The rewritten network must still simulate with an isomorphic data
	// plane: same number of delivered paths per renamed pair.
	s1, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.Simulate(anon)
	if err != nil {
		t.Fatalf("anonymized network fails to simulate: %v", err)
	}
	for _, src := range cfg.Hosts() {
		for _, dst := range cfg.Hosts() {
			if src == dst {
				continue
			}
			p1 := s1.TraceFrom(src, dst)
			p2 := s2.TraceFrom(names[src], names[dst])
			if len(p1) != len(p2) {
				t.Fatalf("path count differs for %s→%s: %d vs %d", src, dst, len(p1), len(p2))
			}
			for i := range p1 {
				if p1[i].Status != p2[i].Status || len(p1[i].Hops) != len(p2[i].Hops) {
					t.Fatalf("path shape differs for %s→%s", src, dst)
				}
				for j, hop := range p1[i].Hops {
					if names[hop] != p2[i].Hops[j] {
						t.Fatalf("hop mismatch %s→%s: %v vs %v", src, dst, p1[i].Hops, p2[i].Hops)
					}
				}
			}
		}
	}
}

func TestApplyPIIDeterministic(t *testing.T) {
	cfg := ospfNet(t)
	a1, _ := ApplyPII(cfg, []byte("k"))
	a2, _ := ApplyPII(cfg, []byte("k"))
	for name, text := range a1.Render() {
		if a2.Device(name) == nil || a2.Device(name).Render() != text {
			t.Fatal("PII stage not deterministic under equal keys")
		}
	}
}

func TestRealTwin(t *testing.T) {
	hosts := []string{"h1", "h12"}
	if got := realTwin("h1-fk1", hosts); got != "h1" {
		t.Fatalf("realTwin = %q", got)
	}
	if got := realTwin("h12-fk2", hosts); got != "h12" {
		t.Fatalf("realTwin = %q", got)
	}
	if got := realTwin("unrelated", hosts); got != "" {
		t.Fatalf("realTwin = %q", got)
	}
	// A name one byte longer than a host but shorter than the "-fk"
	// suffix must not slice out of range.
	if got := realTwin("h1x", hosts); got != "" {
		t.Fatalf("realTwin = %q", got)
	}
}

func TestFakeEdgesReported(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 13
	anon, rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	origSnap, _ := sim.Simulate(cfg)
	anonSnap, _ := sim.Simulate(anon)
	origTopo := origSnap.Net.Topology().RouterSubgraph()
	anonTopo := anonSnap.Net.Topology().RouterSubgraph()
	var gained []string
	for _, e := range anonTopo.Edges() {
		if !origTopo.HasEdge(e.A, e.B) {
			gained = append(gained, e.A+"-"+e.B)
		}
	}
	var reported []string
	for _, e := range rep.FakeEdges {
		reported = append(reported, e.A+"-"+e.B)
	}
	sort.Strings(gained)
	sort.Strings(reported)
	// Parallel fake links may collapse onto one topology edge, so the
	// reported set must cover the gained set.
	gm := map[string]bool{}
	for _, e := range reported {
		gm[e] = true
	}
	for _, e := range gained {
		if !gm[e] {
			t.Fatalf("gained edge %s not reported (reported %v)", e, reported)
		}
	}
}
