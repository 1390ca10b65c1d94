// Package metrics computes the evaluation metrics of the paper's §7:
// route anonymity N_r (distinct routing paths between edge-router pairs),
// route utility P_U (exactly-kept host-to-host paths), topology anonymity
// k_d and clustering coefficient (provided by internal/topology),
// configuration utility U_C (provided by internal/config), and the
// Pearson correlation used in Fig. 15. The path metrics read any
// spec.PathOracle: a simulated *sim.Snapshot or NetHide's obfuscated view.
package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"

	"confmask/internal/sim"
	"confmask/internal/spec"
)

// RouteAnonymity summarizes N_r over edge-router pairs.
type RouteAnonymity struct {
	// Min and Avg are over ordered edge-router pairs with at least one
	// delivered path between attached hosts.
	Min int
	Avg float64
	// Pairs is the number of edge-router pairs measured.
	Pairs int
}

// ComputeRouteAnonymity counts, for every ordered pair of edge routers
// (routers with attached hosts), the number of distinct router-level paths
// o traces between the hosts behind them — the paper's N_r (Figs. 5,
// 10–12). The host list should include fake hosts so that ConfMask's k_H
// twins contribute their diverging paths.
//
// Each host pair contributes one representative path — the canonical
// first of its ECMP set — matching the paper's measurement: a
// deterministic probe observes a single path per host connection, so the
// anonymity set per edge-router pair grows with the number of host
// connections whose observed paths differ (the fake twins whose routes
// ConfMask's noise filters diverted), not with the raw ECMP fan-out.
func ComputeRouteAnonymity(o spec.PathOracle, hosts []string, gatewayOf map[string]string) RouteAnonymity {
	distinct := make(map[[2]string]map[string]bool)
	for _, src := range hosts {
		for _, dst := range hosts {
			gwS, okS := gatewayOf[src]
			gwD, okD := gatewayOf[dst]
			if !okS || !okD || gwS == gwD {
				continue
			}
			for _, p := range o.TraceFrom(src, dst) {
				if p.Status != sim.Delivered || len(p.Hops) < 3 {
					continue
				}
				key := [2]string{gwS, gwD}
				if distinct[key] == nil {
					distinct[key] = make(map[string]bool)
				}
				// Router-level path: strip the host endpoints.
				distinct[key][strings.Join(p.Hops[1:len(p.Hops)-1], ">")] = true
				break // canonical representative; TraceFrom returns sorted paths
			}
		}
	}
	out := RouteAnonymity{Min: -1}
	total := 0
	for _, set := range distinct {
		n := len(set)
		total += n
		if out.Min == -1 || n < out.Min {
			out.Min = n
		}
		out.Pairs++
	}
	if out.Pairs > 0 {
		out.Avg = float64(total) / float64(out.Pairs)
	}
	if out.Min == -1 {
		out.Min = 0
	}
	return out
}

// ExactlyKeptFraction returns the fraction of ordered pairs drawn from
// hosts whose path sets anon traces exactly as orig does — the paper's
// route utility metric P_U (Fig. 8). Path sets compare as sets of
// Path.Key strings, so an oracle may list a pair's paths in any order.
func ExactlyKeptFraction(orig, anon spec.PathOracle, hosts []string) float64 {
	total, kept := 0, 0
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			total++
			if slices.Equal(pathKeys(orig.TraceFrom(src, dst)), pathKeys(anon.TraceFrom(src, dst))) {
				kept++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(kept) / float64(total)
}

// pathKeys returns the sorted keys of a path set.
func pathKeys(ps []sim.Path) []string {
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	slices.Sort(keys)
	return keys
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples; it returns 0 when either sample is constant or the lengths
// mismatch.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// GatewaysWithFakes extends a gateway map with the fake twins' gateways:
// each fake host sits on the same ingress router as its real twin, but its
// own entry comes from the anonymized network view.
func GatewaysWithFakes(view *sim.Net) map[string]string {
	out := make(map[string]string, len(view.GatewayOf))
	for h, gw := range view.GatewayOf {
		out[h] = gw
	}
	return out
}

// Quantiles returns the q-quantiles (e.g. 0.5 for median) of a sample.
func Quantiles(sample []float64, qs ...float64) []float64 {
	if len(sample) == 0 {
		return make([]float64, len(qs))
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = s[lo]*(1-frac) + s[hi]*frac
	}
	return out
}
