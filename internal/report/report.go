// Package report renders a human-readable audit of an anonymization run.
// Before sharing the output bundle, a data holder reviews: what was added
// (fake links, hosts, routers, filters), the utility cost, whether
// functional equivalence was re-verified, and — importantly — a
// self-check that runs this repository's de-anonymization attacks
// (internal/attack) against the about-to-be-shared configurations, so a
// leaky output (e.g. produced by a strawman strategy) is caught before it
// leaves the building.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/attack"
	"confmask/internal/config"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// Audit is the assembled review document data.
type Audit struct {
	GeneratedFor string // free-form label (e.g. input directory)
	Options      anonymize.Options
	Report       *anonymize.Report

	// Equivalent is true when re-simulation confirmed functional
	// equivalence; EquivalenceNote carries the failure detail otherwise.
	Equivalent      bool
	EquivalenceNote string

	// Self-check results over the anonymized output.
	UnconfiguredLinks []attack.LinkSuspicion
	DeadLinks         []attack.LinkSuspicion
	DeadLinkTruePos   int
	DenyPatternSites  int
	MaxReidentConf    float64

	Devices int
	Lines   config.Stats
}

// Build assembles an Audit for an anonymization run: orig and anon are the
// input and output networks, rep the pipeline report.
func Build(label string, orig, anon *config.Network, opts anonymize.Options, rep *anonymize.Report) (*Audit, error) {
	a := &Audit{
		GeneratedFor: label,
		Options:      opts,
		Report:       rep,
		Devices:      len(anon.Devices),
		Lines:        anon.LineStats(),
	}

	// Re-verify functional equivalence independently of the pipeline.
	so, err := sim.Simulate(orig)
	if err != nil {
		return nil, fmt.Errorf("report: simulate original: %w", err)
	}
	sa, err := sim.Simulate(anon)
	if err != nil {
		return nil, fmt.Errorf("report: simulate anonymized: %w", err)
	}
	hosts := orig.Hosts()
	diffs := sim.DiffForwarding(so, sa, hosts)
	a.Equivalent = len(diffs) == 0
	if !a.Equivalent {
		a.EquivalenceNote = fmt.Sprintf("%d host pairs forward differently (first: %s→%s)", len(diffs), diffs[0].Src, diffs[0].Dst)
	}

	// Attack self-check.
	if a.UnconfiguredLinks, err = attack.UnconfiguredInterfaces(anon); err != nil {
		return nil, err
	}
	if a.DeadLinks, err = attack.LargeCostLinks(anon); err != nil {
		return nil, err
	}
	a.DeadLinkTruePos = attack.ScoreLinks(a.DeadLinks, rep.FakeEdges).TruePositives
	a.DenyPatternSites = len(attack.SharedDenyPattern(anon, 2))

	shared := sa.Net.Topology()
	for _, r := range shared.NodesOf(topology.Router) {
		if _, conf := attack.DegreeReidentification(shared, shared.RouterDegree(r)); conf > a.MaxReidentConf {
			a.MaxReidentConf = conf
		}
	}
	return a, nil
}

// BuildFromNetworks assembles an Audit when no pipeline report is at hand
// (e.g. auditing a bundle produced earlier): the change inventory is
// reconstructed by diffing the two networks. Timing and iteration counts
// are unavailable in this mode and render as zero.
func BuildFromNetworks(label string, orig, anon *config.Network, opts anonymize.Options) (*Audit, error) {
	so, err := sim.Build(orig)
	if err != nil {
		return nil, fmt.Errorf("report: original view: %w", err)
	}
	sa, err := sim.Build(anon)
	if err != nil {
		return nil, fmt.Errorf("report: anonymized view: %w", err)
	}
	ot := so.Topology()
	at := sa.Topology()

	rep := &anonymize.Report{
		AddedLines: anon.LineStats().Sub(orig.LineStats()),
		TotalLines: anon.LineStats().Total(),
		UC:         config.UtilityUC(orig, anon),
	}
	origRouters := make(map[string]bool)
	for _, r := range orig.Routers() {
		origRouters[r] = true
	}
	for _, e := range topology.DiffEdges(ot.RouterSubgraph(), at.RouterSubgraph()) {
		rep.FakeEdges = append(rep.FakeEdges, e)
	}
	origHosts := make(map[string]bool)
	for _, h := range orig.Hosts() {
		origHosts[h] = true
	}
	for _, h := range anon.Hosts() {
		if !origHosts[h] {
			rep.FakeHosts = append(rep.FakeHosts, h)
		}
	}
	for _, r := range anon.Routers() {
		if !origRouters[r] {
			rep.FakeRouters = append(rep.FakeRouters, r)
		}
	}
	rep.EquivFilters = rep.AddedLines.Filter
	return Build(label, orig, anon, opts, rep)
}

// Safe reports whether the audit found no red flags: equivalence holds, no
// fake link is identifiable by the structural attacks, and degree
// re-identification confidence stays within 1/k_R.
func (a *Audit) Safe() bool {
	return a.Equivalent &&
		len(a.UnconfiguredLinks) == 0 &&
		a.DeadLinkTruePos == 0 &&
		a.MaxReidentConf <= 1.0/float64(a.Options.KR)+1e-9
}

// Markdown renders the audit as a Markdown document.
func (a *Audit) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# ConfMask anonymization audit — %s\n\n", a.GeneratedFor)
	verdict := "**SAFE TO SHARE** (no red flags)"
	if !a.Safe() {
		verdict = "**REVIEW REQUIRED** (red flags below)"
	}
	fmt.Fprintf(&b, "Verdict: %s\n\n", verdict)

	b.WriteString("## Parameters\n\n")
	fmt.Fprintf(&b, "- k_R (topology anonymity): %d\n", a.Options.KR)
	fmt.Fprintf(&b, "- k_H (route anonymity): %d\n", a.Options.KH)
	fmt.Fprintf(&b, "- noise probability p: %g\n", a.Options.NoiseP)
	fmt.Fprintf(&b, "- strategy: %v; seed: %d\n", a.Options.Strategy, a.Options.Seed)
	if a.Options.FakeRouters > 0 {
		fmt.Fprintf(&b, "- scale obfuscation: %d fake routers\n", a.Options.FakeRouters)
	}

	b.WriteString("\n## What was added\n\n")
	fmt.Fprintf(&b, "- fake links: %d (%s)\n", len(a.Report.FakeEdges), edgeList(a.Report.FakeEdges, 6))
	fmt.Fprintf(&b, "- fake hosts: %d\n", len(a.Report.FakeHosts))
	if len(a.Report.FakeRouters) > 0 {
		fmt.Fprintf(&b, "- fake routers: %d (%s)\n", len(a.Report.FakeRouters), strings.Join(head(a.Report.FakeRouters, 6), ", "))
	}
	fmt.Fprintf(&b, "- route filters: %d equivalence + %d anonymity\n", a.Report.EquivFilters, a.Report.AnonFilters)
	fmt.Fprintf(&b, "- injected lines: %d interface, %d protocol, %d filter (U_C = %.3f over %d total lines)\n",
		a.Report.AddedLines.Interface, a.Report.AddedLines.Protocol, a.Report.AddedLines.Filter, a.Report.UC, a.Lines.Total())
	fmt.Fprintf(&b, "- pipeline time: %v (%d equivalence iterations)\n",
		a.Report.Timing.Total().Round(time.Millisecond), a.Report.EquivIterations)

	b.WriteString("\n## Utility: functional equivalence\n\n")
	if a.Equivalent {
		b.WriteString("- re-simulation confirms every original host-to-host path is preserved exactly\n")
	} else {
		fmt.Fprintf(&b, "- **FAILED**: %s\n", a.EquivalenceNote)
	}

	b.WriteString("\n## Privacy self-check (attacks run against the output)\n\n")
	flag := func(bad bool) string {
		if bad {
			return " ⚠"
		}
		return ""
	}
	fmt.Fprintf(&b, "- unconfigured-interface detection: %d links flagged%s\n", len(a.UnconfiguredLinks), flag(len(a.UnconfiguredLinks) > 0))
	fmt.Fprintf(&b, "- SPT dead-link detection: %d fake links identified (of %d flagged)%s\n", a.DeadLinkTruePos, len(a.DeadLinks), flag(a.DeadLinkTruePos > 0))
	fmt.Fprintf(&b, "- shared-deny-pattern sites: %d\n", a.DenyPatternSites)
	fmt.Fprintf(&b, "- max degree re-identification confidence: %.3f (bound 1/k_R = %.3f)%s\n",
		a.MaxReidentConf, 1.0/float64(a.Options.KR), flag(a.MaxReidentConf > 1.0/float64(a.Options.KR)+1e-9))

	fmt.Fprintf(&b, "\n## Inventory\n\n- %d devices in the shared bundle\n", a.Devices)
	return b.String()
}

func edgeList(es []topology.Edge, max int) string {
	var out []string
	for i, e := range es {
		if i == max {
			out = append(out, "…")
			break
		}
		out = append(out, e.A+"–"+e.B)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func head(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
