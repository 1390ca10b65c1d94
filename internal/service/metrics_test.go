package service

import (
	"testing"
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/netgen"
)

// TestRuntimeGaugesFatTree04 drives a FatTree04 anonymization through a
// job's stage timer, as the worker does. The pipeline's Report.Alloc
// and the timer's prev_stage_alloc_bytes samples, both read from
// runtime/metrics' cumulative /gc/heap/allocs:bytes, must be positive for
// every stage, and the heap_inuse_bytes gauge must be nonzero.
func TestRuntimeGaugesFatTree04(t *testing.T) {
	cfg, err := netgen.FatTree04()
	if err != nil {
		t.Fatal(err)
	}
	timer := &stageTimer{m: newMetrics()}
	sampled := map[string]uint64{}
	record := func(closed string, _ time.Duration, alloc uint64) {
		if closed != "" {
			sampled[closed] = alloc
		}
	}
	opts := anonymize.DefaultOptions()
	opts.Progress = func(stage string, _ int) { record(timer.transition(stage, time.Now())) }
	_, rep, err := anonymize.Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	record(timer.finish(time.Now()))
	for stage, alloc := range map[string]uint64{
		"preprocess":  rep.Alloc.Preprocess,
		"topology":    rep.Alloc.Topology,
		"equivalence": rep.Alloc.RouteEquiv,
		"anonymity":   rep.Alloc.RouteAnon,
	} {
		if alloc == 0 {
			t.Errorf("Report.Alloc for %s is 0", stage)
		}
		if sampled[stage] == 0 {
			t.Errorf("no allocation sampled for %s: %v", stage, sampled)
		}
	}
	if n, ok := timer.m.snapshot()["heap_inuse_bytes"].(uint64); !ok || n == 0 {
		t.Fatalf("heap_inuse_bytes = %v, want > 0", n)
	}
}
