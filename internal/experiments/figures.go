package experiments

import (
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/metrics"
	"confmask/internal/nethide"
	"confmask/internal/sim"
	"confmask/internal/spec"
)

// Default parameters of the paper's evaluation (§7).
const (
	defaultKR = 6
	defaultKH = 2
	fig9KH    = 4
)

// Table2Row is one row of Table 2: the evaluation networks.
type Table2Row struct {
	ID, Name, Type        string
	Routers, Hosts, Links int
	ConfigLines           int
}

// Table2 rebuilds the evaluation networks and reports their sizes.
func (r *Runner) Table2() ([]Table2Row, error) {
	var out []Table2Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			ID: s.ID, Name: s.Name, Type: s.Type,
			Routers:     len(b.Cfg.Routers()),
			Hosts:       len(b.Cfg.Hosts()),
			Links:       b.Topo.NumEdges(),
			ConfigLines: b.Cfg.LineStats().Total(),
		})
	}
	return out, nil
}

// Fig5Row reports route anonymity N_r (distinct paths between edge-router
// pairs) before and after anonymization with k_R=6, k_H=2.
type Fig5Row struct {
	Net              string
	OrigMin, AnonMin int
	OrigAvg, AnonAvg float64
}

// Figure5 measures N_r across all networks at the default parameters.
func (r *Runner) Figure5() ([]Fig5Row, error) {
	var out []Fig5Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		d, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		orig := routeAnonymity(b.Snap)
		anon := routeAnonymity(d.Snap)
		out = append(out, Fig5Row{
			Net:     s.Name,
			OrigMin: orig.Min, AnonMin: anon.Min,
			OrigAvg: orig.Avg, AnonAvg: anon.Avg,
		})
	}
	return out, nil
}

// routeAnonymity measures N_r over every host of s, fake twins included.
func routeAnonymity(s *sim.Snapshot) metrics.RouteAnonymity {
	return metrics.ComputeRouteAnonymity(s, s.Hosts(), s.Net.GatewayOf)
}

// Fig6Row reports topology anonymity: the minimum number of routers
// sharing a degree, before and after anonymization.
type Fig6Row struct {
	Net        string
	Orig, Anon int
	KR         int
}

// Figure6 measures k_d across all networks at k_R=6.
func (r *Runner) Figure6() ([]Fig6Row, error) {
	var out []Fig6Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		d, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Row{
			Net:  s.Name,
			Orig: b.Topo.MinSameDegreeCount(),
			Anon: d.Snap.Net.Topology().MinSameDegreeCount(),
			KR:   defaultKR,
		})
	}
	return out, nil
}

// Fig7Row reports the clustering coefficient before and after.
type Fig7Row struct {
	Net        string
	Orig, Anon float64
}

// Figure7 measures topology utility (clustering coefficient) at k_R=6.
func (r *Runner) Figure7() ([]Fig7Row, error) {
	var out []Fig7Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		d, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Row{
			Net:  s.Name,
			Orig: b.Topo.ClusteringCoefficient(),
			Anon: d.Snap.Net.Topology().ClusteringCoefficient(),
		})
	}
	return out, nil
}

// Fig8Row reports the fraction of exactly-kept host-to-host paths P_U.
type Fig8Row struct {
	Net               string
	ConfMask, NetHide float64
}

// Figure8 compares path preservation between ConfMask and NetHide.
func (r *Runner) Figure8() ([]Fig8Row, error) {
	var out []Fig8Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		d, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		hosts := b.Cfg.Hosts()
		nh := nethide.Obfuscate(b.Topo, nethide.Options{Seed: r.Seed})
		out = append(out, Fig8Row{
			Net:      s.Name,
			ConfMask: metrics.ExactlyKeptFraction(b.Snap, d.Snap, hosts),
			NetHide:  metrics.ExactlyKeptFraction(b.Snap, nh, hosts),
		})
	}
	return out, nil
}

// Fig9Row reports specification preservation (Config2Spec-style).
type Fig9Row struct {
	Net string
	// KeptCM/KeptNH: fraction of original specs preserved.
	KeptCM, KeptNH float64
	// IntroCM/IntroNH: introduced specs as a ratio of original count.
	IntroCM, IntroNH float64
	// FakeFracCM: share of ConfMask-introduced specs that reference fake
	// entities (benign by construction).
	FakeFracCM float64
}

// Figure9 mines specifications from original, ConfMask (k_H=4), and
// NetHide data planes and diffs them.
func (r *Runner) Figure9() ([]Fig9Row, error) {
	var out []Fig9Row
	for _, s := range r.Nets {
		b, err := r.base(s)
		if err != nil {
			return nil, err
		}
		d, err := r.run(s, defaultKR, fig9KH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		hosts := b.Cfg.Hosts()
		routers := b.Cfg.Routers()
		origSpecs := spec.Mine(b.Snap, routers, hosts)
		cmSpecs := spec.Mine(d.Snap, routers, d.Anon.Hosts())
		nh := nethide.Obfuscate(b.Topo, nethide.Options{Seed: r.Seed})
		nhSpecs := spec.Mine(nh, routers, hosts)

		cm := spec.Compare(origSpecs, cmSpecs, spec.IsFakeBySuffix())
		nhc := spec.Compare(origSpecs, nhSpecs, nil)
		out = append(out, Fig9Row{
			Net:        s.Name,
			KeptCM:     cm.KeptFraction(),
			KeptNH:     nhc.KeptFraction(),
			IntroCM:    cm.IntroducedRatio(),
			IntroNH:    nhc.IntroducedRatio(),
			FakeFracCM: cm.FakeFraction(),
		})
	}
	return out, nil
}

// Fig10Row compares ConfMask with the two strawmen on route anonymity and
// configuration utility.
type Fig10Row struct {
	Net              string
	NrCM, NrS1, NrS2 float64
	UCCM, UCS1, UCS2 float64
}

// Figure10 runs all three route-equivalence strategies at k_R=6, k_H=2.
func (r *Runner) Figure10() ([]Fig10Row, error) {
	var out []Fig10Row
	for _, s := range r.Nets {
		cm, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		s1, err := r.run(s, defaultKR, defaultKH, anonymize.Strawman1)
		if err != nil {
			return nil, err
		}
		s2, err := r.run(s, defaultKR, defaultKH, anonymize.Strawman2)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Row{
			Net:  s.Name,
			NrCM: routeAnonymity(cm.Snap).Avg,
			NrS1: routeAnonymity(s1.Snap).Avg,
			NrS2: routeAnonymity(s2.Snap).Avg,
			UCCM: cm.Report.UC,
			UCS1: s1.Report.UC,
			UCS2: s2.Report.UC,
		})
	}
	return out, nil
}

// SweepRow is one (network, k_R, k_H) data point, shared by Figs. 11–15.
type SweepRow struct {
	Net    string
	KR, KH int
	Nr     float64
	UC     float64
}

// sweep runs the parameter grid of §7.3: k_R ∈ {2,6,10} at k_H=2 and
// k_H ∈ {2,4,6} at k_R=6.
func (r *Runner) sweep() ([]SweepRow, error) {
	combos := [][2]int{{2, 2}, {6, 2}, {10, 2}, {6, 4}, {6, 6}}
	var out []SweepRow
	for _, s := range r.Nets {
		for _, c := range combos {
			kR, kH := c[0], c[1]
			if kR > len(r.bases[s.ID].Cfg.Routers()) {
				continue
			}
			d, err := r.run(s, kR, kH, anonymize.ConfMask)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepRow{
				Net: s.Name, KR: kR, KH: kH,
				Nr: routeAnonymity(d.Snap).Avg,
				UC: d.Report.UC,
			})
		}
	}
	return out, nil
}

// ensureBases builds all baselines before sweep() consults r.bases.
func (r *Runner) ensureBases() error {
	for _, s := range r.Nets {
		if _, err := r.base(s); err != nil {
			return err
		}
	}
	return nil
}

// Figure11 reports N_r as k_R varies (k_H = 2).
func (r *Runner) Figure11() ([]SweepRow, error) {
	return r.sweepFilter(func(p SweepRow) bool { return p.KH == 2 })
}

// Figure12 reports N_r as k_H varies (k_R = 6).
func (r *Runner) Figure12() ([]SweepRow, error) {
	return r.sweepFilter(func(p SweepRow) bool { return p.KR == 6 })
}

// Figure13 reports U_C as k_R varies (k_H = 2); same points as Figure11.
func (r *Runner) Figure13() ([]SweepRow, error) { return r.Figure11() }

// Figure14 reports U_C as k_H varies (k_R = 6); same points as Figure12.
func (r *Runner) Figure14() ([]SweepRow, error) { return r.Figure12() }

func (r *Runner) sweepFilter(keep func(SweepRow) bool) ([]SweepRow, error) {
	if err := r.ensureBases(); err != nil {
		return nil, err
	}
	all, err := r.sweep()
	if err != nil {
		return nil, err
	}
	var out []SweepRow
	for _, p := range all {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out, nil
}

// Fig15Result is the privacy–utility trade-off scatter with its Pearson
// correlation (the paper reports r ≈ −0.36).
type Fig15Result struct {
	Points  []SweepRow
	Pearson float64
}

// Figure15 correlates N_r against U_C over the whole sweep.
func (r *Runner) Figure15() (*Fig15Result, error) {
	if err := r.ensureBases(); err != nil {
		return nil, err
	}
	pts, err := r.sweep()
	if err != nil {
		return nil, err
	}
	var nr, uc []float64
	for _, p := range pts {
		nr = append(nr, p.Nr)
		uc = append(uc, p.UC)
	}
	return &Fig15Result{Points: pts, Pearson: metrics.Pearson(nr, uc)}, nil
}

// Fig16Row compares end-to-end running time of the three strategies, and
// their route-equivalence iteration counts — the number of full
// simulations each needs, which is the cost driver when the simulator is
// Batfish (the paper's setting: strawman 1 needs one, ConfMask a few,
// strawman 2 many).
type Fig16Row struct {
	Net                       string
	S1, CM, S2                time.Duration
	ItersS1, ItersCM, ItersS2 int
}

// Figure16 measures anonymization wall time per strategy at the default
// parameters.
func (r *Runner) Figure16() ([]Fig16Row, error) {
	var out []Fig16Row
	for _, s := range r.Nets {
		cm, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		s1, err := r.run(s, defaultKR, defaultKH, anonymize.Strawman1)
		if err != nil {
			return nil, err
		}
		s2, err := r.run(s, defaultKR, defaultKH, anonymize.Strawman2)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig16Row{
			Net: s.Name,
			CM:  cm.Wall, ItersCM: cm.Report.EquivIterations,
			S1: s1.Wall, ItersS1: s1.Report.EquivIterations,
			S2: s2.Wall, ItersS2: s2.Report.EquivIterations,
		})
	}
	return out, nil
}

// Table3Row is the injected-line breakdown per network and parameters.
type Table3Row struct {
	Net        string
	KR, KH     int
	Protocol   int
	Filter     int
	Interface  int
	TotalLines int
}

// Table3 reproduces the appendix table: added routing-protocol, filter,
// and interface lines for the parameter grid the paper reports.
func (r *Runner) Table3() ([]Table3Row, error) {
	combos := [][2]int{{2, 2}, {6, 2}, {6, 4}, {10, 2}}
	ids := map[string]bool{"B": true, "D": true, "E": true, "H": true}
	var out []Table3Row
	for _, s := range r.Nets {
		if !ids[s.ID] {
			continue
		}
		for _, c := range combos {
			d, err := r.run(s, c[0], c[1], anonymize.ConfMask)
			if err != nil {
				return nil, err
			}
			out = append(out, Table3Row{
				Net: s.Name, KR: c[0], KH: c[1],
				Protocol:   d.Report.AddedLines.Protocol,
				Filter:     d.Report.AddedLines.Filter,
				Interface:  d.Report.AddedLines.Interface,
				TotalLines: d.Report.TotalLines,
			})
		}
	}
	// USCarrier at the default parameters, matching the paper's last row.
	for _, s := range r.Nets {
		if s.ID != "F" {
			continue
		}
		d, err := r.run(s, defaultKR, defaultKH, anonymize.ConfMask)
		if err != nil {
			return nil, err
		}
		out = append(out, Table3Row{
			Net: s.Name, KR: defaultKR, KH: defaultKH,
			Protocol:   d.Report.AddedLines.Protocol,
			Filter:     d.Report.AddedLines.Filter,
			Interface:  d.Report.AddedLines.Interface,
			TotalLines: d.Report.TotalLines,
		})
	}
	return out, nil
}
