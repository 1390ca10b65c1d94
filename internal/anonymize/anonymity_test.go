package anonymize

import (
	"context"
	"math/rand"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// repairProbe is a context whose Err records how many filter lines out
// holds at each call. routeAnonymity calls Err once at the top of every
// repair round, so the record is the filter count each round started
// with.
type repairProbe struct {
	context.Context
	out     *config.Network
	filters []int
}

func (c *repairProbe) Err() error {
	c.filters = append(c.filters, c.out.LineStats().Filter)
	return nil
}

// twoRouterNet is the smallest OSPF network with routes to anonymize: h1
// on r1, h2 on r2.
func twoRouterNet(t *testing.T) *config.Network {
	t.Helper()
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("r1").Router("r2")
	b.Link("r1", "r2")
	b.Host("h1", "r1").Host("h2", "r2")
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRepairRechecksAfterLastRemoval pins the exit of Algorithm 2's
// repair loop. With p = 1 the noise pass filters every next hop toward
// every fake twin, so the first round must remove filters; success may
// only be reported by a round that started after the last removal and
// found every fake host reachable. On both networks the first round
// removes every record, so a loop bound that shrinks with each removal
// would end the loop right there, unverified. The re-simulated output
// must also pass the twin-reachability oracle: every router that reaches
// a real host in the original network reaches its fake twin, by trace.
func TestRepairRechecksAfterLastRemoval(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *config.Network
	}{
		{"two-router", twoRouterNet(t)},
		{"ospfNet", ospfNet(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.KR, opts.NoiseP = 1, 1
			base, err := newBaseline(tc.cfg, opts.simOpts())
			if err != nil {
				t.Fatal(err)
			}
			out := tc.cfg.Clone()
			pool := netaddr.NewPool(tc.cfg.UsedPrefixes(), nil)
			probe := &repairProbe{Context: context.Background(), out: out}
			fakes, _, err := routeAnonymity(probe, out, pool, base, base.snap, opts, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			final := out.LineStats().Filter
			if len(probe.filters) == 0 || final >= probe.filters[0] {
				t.Fatalf("filter lines per round %v, %d after: the first round removed nothing", probe.filters, final)
			}
			if last := probe.filters[len(probe.filters)-1]; last != final {
				t.Fatalf("filter lines per round %v, %d after: success reported without a round after the last removal", probe.filters, final)
			}

			anon, err := sim.Simulate(out)
			if err != nil {
				t.Fatal(err)
			}
			hosts := tc.cfg.Hosts()
			for _, fh := range fakes {
				twin := realTwin(fh, hosts)
				for _, r := range tc.cfg.Routers() {
					if delivered(base.snap.TraceFrom(r, twin)) && !delivered(anon.TraceFrom(r, fh)) {
						t.Errorf("%s reaches %s but not its twin %s", r, twin, fh)
					}
				}
			}
		})
	}
}
