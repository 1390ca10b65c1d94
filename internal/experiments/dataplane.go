package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// DataPlaneBenchRow is one network's data-plane extraction measurement:
// full extraction cost sequential vs parallel, and the cost of one
// filter-mutation round with full re-extraction vs dirty-destination
// re-tracing — the round shape of strawman 2's fixing loop.
type DataPlaneBenchRow struct {
	Net   string  `json:"net"`
	Hosts int     `json:"hosts"`
	Pairs int     `json:"pairs"`
	SeqMS float64 `json:"seq_ms"` // full extraction, parallelism 1
	ParMS float64 `json:"par_ms"` // full extraction, parallelism GOMAXPROCS
	// FullRoundMS / DirtyRoundMS time one round after a single-destination
	// filter change: re-extract everything vs re-trace only dirty
	// destinations (DataPlaneForDirty with the InvalidateFilters diff).
	FullRoundMS  float64 `json:"full_round_ms"`
	DirtyRoundMS float64 `json:"dirty_round_ms"`
	DirtyDests   int     `json:"dirty_dests"`
}

// dataPlaneBenchNets picks the reference networks (Backbone, FatTree08)
// from the Runner's catalog; a restricted catalog without them (tests)
// measures whatever it holds.
func (r *Runner) dataPlaneBenchNets() []netgen.Spec {
	var out []netgen.Spec
	for _, s := range r.Nets {
		if s.Name == "Backbone" || s.Name == "FatTree08" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = r.Nets
	}
	return out
}

// DataPlaneBench measures the destination-sharded extraction engine on
// the reference networks. Every timing is a best-of-three over a cold
// per-destination cache (a fresh simulation per measurement, excluded
// from the timing).
func (r *Runner) DataPlaneBench() ([]DataPlaneBenchRow, error) {
	var rows []DataPlaneBenchRow
	for _, spec := range r.dataPlaneBenchNets() {
		cfg, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", spec.ID, err)
		}
		view, err := sim.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.ID, err)
		}
		hosts := cfg.Hosts()
		row := DataPlaneBenchRow{
			Net:   spec.Name,
			Hosts: len(hosts),
			Pairs: len(hosts) * (len(hosts) - 1),
		}

		extract := func(workers int) float64 {
			best := time.Duration(0)
			for i := 0; i < 3; i++ {
				snap := sim.SimulateNetOpts(view, sim.Options{Parallelism: workers})
				t0 := time.Now()
				snap.DataPlaneFor(hosts)
				if d := time.Since(t0); best == 0 || d < best {
					best = d
				}
			}
			return float64(best.Microseconds()) / 1000
		}
		row.SeqMS = extract(1)
		row.ParMS = extract(0)

		// One fixing-loop round: deny one host prefix at its gateway, then
		// compare full re-extraction against dirty re-tracing.
		prevSnap := sim.SimulateNetOpts(view, sim.Options{Parallelism: 1})
		prev := prevSnap.DataPlaneFor(hosts)
		gw := view.GatewayOf[hosts[0]]
		pfx := view.HostPrefix[hosts[0]]
		if !attachBenchDeny(cfg.Device(gw), pfx) {
			rows = append(rows, row)
			continue
		}
		diff := view.InvalidateFilters()
		for _, h := range hosts {
			if diff.Affects(view.HostPrefix[h]) {
				row.DirtyDests++
			}
		}
		var full, dirty time.Duration
		for i := 0; i < 3; i++ {
			snap := sim.SimulateNetOpts(view, sim.Options{Parallelism: 1})
			t0 := time.Now()
			snap.DataPlaneFor(hosts)
			if d := time.Since(t0); full == 0 || d < full {
				full = d
			}
			snap = sim.SimulateNetOpts(view, sim.Options{Parallelism: 1})
			t0 = time.Now()
			snap.DataPlaneForDirty(hosts, prev, diff)
			if d := time.Since(t0); dirty == 0 || d < dirty {
				dirty = d
			}
		}
		row.FullRoundMS = float64(full.Microseconds()) / 1000
		row.DirtyRoundMS = float64(dirty.Microseconds()) / 1000
		rows = append(rows, row)
	}
	return rows, nil
}

// attachBenchDeny adds an inbound distribute-list denying pfx on the
// device's first interface, whichever IGP it runs.
func attachBenchDeny(d *config.Device, pfx netip.Prefix) bool {
	if d == nil || len(d.Interfaces) == 0 {
		return false
	}
	iface := d.Interfaces[0].Name
	var filters map[string]string
	switch {
	case d.OSPF != nil:
		if d.OSPF.InFilters == nil {
			d.OSPF.InFilters = make(map[string]string)
		}
		filters = d.OSPF.InFilters
	case d.RIP != nil:
		if d.RIP.InFilters == nil {
			d.RIP.InFilters = make(map[string]string)
		}
		filters = d.RIP.InFilters
	case d.EIGRP != nil:
		if d.EIGRP.InFilters == nil {
			d.EIGRP.InFilters = make(map[string]string)
		}
		filters = d.EIGRP.InFilters
	default:
		return false
	}
	name, ok := filters[iface]
	if !ok {
		name = "DPBENCH-" + iface
		filters[iface] = name
	}
	d.EnsurePrefixList(name).Deny(pfx)
	return true
}
