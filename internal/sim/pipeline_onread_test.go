package sim_test

import (
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// TestPipelineReadsOnlyDestinations runs the whole anonymization pipeline
// with each strategy on the Table 2 networks and MultiRegion10x30 and
// requires that no Snapshot computed a column on read: every route the
// pipeline reads is a destination's, computed by the simulation itself.
// It also pins how many columns a fresh simulation computes.
// MultiRegion10x30 and the strawmen are skipped under -short.
func TestPipelineReadsOnlyDestinations(t *testing.T) {
	specs := append(netgen.Catalog(), netgen.Spec{Name: "MultiRegion10x30", Build: netgen.MultiRegion10x30})
	strategies := []anonymize.Strategy{anonymize.ConfMask, anonymize.Strawman1, anonymize.Strawman2}
	for _, s := range specs {
		if s.Name == "MultiRegion10x30" && testing.Short() {
			continue
		}
		cfg, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range strategies {
			if strategy != anonymize.ConfMask && testing.Short() {
				continue
			}
			opts := anonymize.DefaultOptions()
			opts.Seed = 1
			opts.Strategy = strategy
			before := sim.OnReadColumns()
			if _, _, err := anonymize.Run(cfg, opts); err != nil {
				t.Fatalf("%s/%v: %v", s.Name, strategy, err)
			}
			if n := sim.OnReadColumns() - before; n != 0 {
				t.Errorf("%s/%v: the pipeline computed %d columns on read", s.Name, strategy, n)
			}
		}
	}

	for _, c := range []struct {
		build           func() (*config.Network, error)
		name            string
		computed, total int
	}{
		{netgen.FatTree08, "FatTree08", 65, 321},
		{netgen.MultiRegion10x30, "MultiRegion10x30", 101, 544},
	} {
		cfg, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sim.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if computed, total := sim.EagerColumns(snap); computed != c.computed || total != c.total {
			t.Errorf("%s: a fresh simulation computed %d of %d columns, want %d of %d", c.name, computed, total, c.computed, c.total)
		}
	}
}
