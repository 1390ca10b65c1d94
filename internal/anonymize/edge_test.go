package anonymize

import (
	"testing"

	"confmask/internal/sim"
)

// TestPipelineKHOne: k_H = 1 means no fake hosts and no Algorithm 2, but
// topology anonymization and route equivalence still run.
func TestPipelineKHOne(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.KH = 1
	opts.Seed = 2
	_, rep := checkPipeline(t, ospfNet(t), opts)
	if len(rep.FakeHosts) != 0 || rep.AnonFilters != 0 {
		t.Fatalf("k_H=1 must add nothing: %+v", rep)
	}
}

// TestPipelineMaxNoise: p = 1.0 tries to filter every fake-host FIB entry;
// the reachability repair must claw back enough filters that every fake
// host stays reachable.
func TestPipelineMaxNoise(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.NoiseP = 1.0
	opts.Seed = 4
	checkPipeline(t, ospfNet(t), opts)
}

// TestPipelineKREqualsRouterCount: the extreme k_R forces a near-complete
// router graph and must still preserve the data plane.
func TestPipelineKRMax(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = len(cfg.Routers())
	opts.Seed = 10
	checkPipeline(t, cfg, opts)
}

// TestPipelineIdempotentEquivalence: anonymizing an already-anonymized
// network again must still be functionally equivalent to it.
func TestPipelineIdempotentEquivalence(t *testing.T) {
	opts := DefaultOptions()
	opts.KR = 3
	opts.Seed = 1
	first, _, err := Run(ospfNet(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 2
	second, _, err := Run(first, opts)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sim.Simulate(first)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim.Simulate(second)
	if err != nil {
		t.Fatal(err)
	}
	hosts := first.Hosts() // includes the first round's fake hosts
	if diffs := s1.PairDigestsFor(hosts).DiffPairs(s2.PairDigestsFor(hosts)); len(diffs) != 0 {
		t.Fatalf("double anonymization changed forwarding for %d pairs", len(diffs))
	}
}

// TestStrategyStrings pins the Strategy enum's display names used in CLI
// flags and reports.
func TestStrategyStrings(t *testing.T) {
	if ConfMask.String() != "confmask" || Strawman1.String() != "strawman1" || Strawman2.String() != "strawman2" {
		t.Fatal("strategy names wrong")
	}
}

// TestTimingAccounted ensures the report's stage timings sum to Total.
func TestTimingAccounted(t *testing.T) {
	tm := Timing{Preprocess: 1, Topology: 2, RouteEquiv: 3, RouteAnon: 4}
	if tm.Total() != 10 {
		t.Fatalf("Total = %d", tm.Total())
	}
}
