// Package confmask is a privacy-preserving network-configuration sharing
// toolkit: it anonymizes the topology and routing paths implicit in
// Cisco-IOS-style router configurations while preserving functional
// equivalence — every host-to-host forwarding path of the original network
// survives exactly. It is a from-scratch reproduction of ConfMask
// (Wang et al., ACM SIGCOMM 2024).
//
// The package operates on plain configuration text keyed by file name, so
// a minimal use is:
//
//	configs, _ := confmask.GenerateExample("FatTree04")
//	anon, report, err := confmask.Anonymize(configs, confmask.DefaultOptions())
//
// Anonymize runs the full pipeline: k_R-degree topology anonymization
// (fake links with SFE-compliant costs), route-equivalence fixing
// (Algorithm 1 of the paper), and k_H route anonymity (fake twin hosts
// with randomized filters, Algorithm 2). Verify re-simulates both networks
// and asserts functional equivalence; ApplyPII is the add-on stage for
// prefix-preserving IP and hostname anonymization.
package confmask

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/report"
	"confmask/internal/sim"
	"confmask/internal/spec"
)

// Options configures Anonymize.
type Options struct {
	// KR is the topology anonymity parameter k_R: after anonymization at
	// least KR routers share every occurring router degree. Default 6.
	KR int
	// KH is the route anonymity parameter k_H: each real host gains KH−1
	// fake twins on the same ingress router. Default 2.
	KH int
	// NoiseP is the probability a fake-host FIB entry receives a deny
	// filter (route diversification). 0 selects the default, 0.1; any
	// other value must lie in (0, 1].
	NoiseP float64
	// Seed drives all randomness; equal seeds reproduce outputs exactly.
	Seed int64
	// Strategy selects the route-equivalence algorithm: "confmask"
	// (default, Algorithm 1), or the evaluation baselines "strawman1" /
	// "strawman2".
	Strategy string
	// FakeRouters additionally hides the router count by adding this
	// many fake routers with generated configurations (the paper's §9
	// scale-obfuscation extension; IGP-only networks).
	FakeRouters int
	// OutputSyntax selects the emitted configuration syntax: "" keeps
	// the input's (auto-detected) syntax, "ios" and "junos" force one.
	OutputSyntax string
	// Parallelism bounds the simulation engine's worker pool: 0 (or
	// negative) uses GOMAXPROCS, 1 forces sequential execution. The
	// anonymized output is byte-identical at any setting, so this only
	// trades wall-clock time for CPU.
	Parallelism int
	// Progress, when non-nil, receives pipeline stage transitions: one
	// call per stage plus one per route-equivalence iteration. It runs
	// synchronously on the pipeline goroutine, so it must return quickly;
	// it is ignored by JSON encoding (daemon job requests carry every
	// other field).
	Progress ProgressFunc `json:"-"`
	// Checkpoint, when non-nil, receives a resumable pipeline snapshot
	// after each completed stage (topology, equivalence, anonymity).
	// Like Progress it runs synchronously on the pipeline goroutine and
	// is excluded from JSON; confmaskd persists these snapshots so a
	// restarted daemon resumes jobs instead of replaying them.
	Checkpoint func(*Checkpoint) `json:"-"`
	// Resume, when non-nil, restarts the pipeline from the checkpoint:
	// completed stages are skipped and the random stream is
	// fast-forwarded, so the output is byte-identical to an
	// uninterrupted run with the same configs and options (seed
	// included). Excluded from JSON: a resumed job is still the same job.
	Resume *Checkpoint `json:"-"`
}

// Checkpoint is a resumable pipeline snapshot: the intermediate network in
// rendered form plus the bookkeeping (random-stream position, artifact
// marks, partial report) needed to continue a run in a fresh process with
// byte-identical output. It JSON-round-trips, which is how the service
// journal stores it.
type Checkpoint = anonymize.StageCheckpoint

// ProgressFunc observes pipeline progress. Stages arrive in order:
// "preprocess", "topology", "equivalence" (once per Algorithm 1 /
// strawman iteration, iteration ≥ 1), "anonymity" (Algorithm 2), and
// "render". Iteration is 0 for non-iterative stages.
type ProgressFunc func(stage string, iteration int)

// Stage names reported to Options.Progress, in pipeline order.
const (
	StagePreprocess  = "preprocess"
	StageTopology    = "topology"
	StageEquivalence = "equivalence"
	StageAnonymity   = "anonymity"
	StageRender      = "render"
)

// DefaultOptions returns the paper's default parameters (k_R=6, k_H=2,
// p=0.1).
func DefaultOptions() Options {
	return Options{KR: 6, KH: 2, NoiseP: 0.1, Strategy: "confmask"}
}

func (o Options) internal() (anonymize.Options, error) {
	opts := anonymize.DefaultOptions()
	if o.KR > 0 {
		opts.KR = o.KR
	}
	if o.KH > 0 {
		opts.KH = o.KH
	}
	if o.NoiseP != 0 {
		opts.NoiseP = o.NoiseP
	}
	opts.Seed = o.Seed
	opts.FakeRouters = o.FakeRouters
	opts.Parallelism = o.Parallelism
	opts.Progress = o.Progress
	opts.Checkpoint = o.Checkpoint
	opts.Resume = o.Resume
	switch strings.ToLower(o.Strategy) {
	case "", "confmask":
		opts.Strategy = anonymize.ConfMask
	case "strawman1":
		opts.Strategy = anonymize.Strawman1
	case "strawman2":
		opts.Strategy = anonymize.Strawman2
	default:
		return opts, fmt.Errorf("confmask: unknown strategy %q", o.Strategy)
	}
	return opts, nil
}

// Report summarizes what anonymization changed.
type Report struct {
	// FakeLinks lists added router-to-router links as "a<->b".
	FakeLinks []string
	// FakeHosts lists added twin hosts.
	FakeHosts []string
	// FakeRouters lists routers added by scale obfuscation.
	FakeRouters []string
	// Iterations is the number of route-equivalence fixing rounds.
	Iterations int
	// FiltersAdded counts route filters from equivalence fixing plus the
	// kept route-anonymity noise filters.
	FiltersAdded int
	// LinesAdded / LinesTotal give the configuration utility inputs
	// (N_l and P_l); UC is 1 − N_l/P_l.
	LinesAdded int
	LinesTotal int
	UC         float64
	// Duration is the end-to-end pipeline wall time.
	Duration time.Duration
	// Stages is the per-stage wall-time breakdown, keyed by the Stage*
	// constants ("preprocess", "topology", "equivalence", "anonymity",
	// "render"). Stages that did not run (e.g. "anonymity" with KH=1) are
	// absent.
	Stages map[string]time.Duration
	// StageAlloc is the per-stage heap-allocation breakdown in bytes
	// (runtime.MemStats.TotalAlloc deltas), keyed like Stages. It is the
	// memory-side view of the same pipeline run: a stage whose allocation
	// grows quadratically with the network shows up here long before the
	// process OOMs.
	StageAlloc map[string]uint64
}

// parseAny parses configurations in either supported syntax, detected
// off the first file in label order (see config.ParseAny).
func parseAny(configs map[string]string) (*config.Network, string, error) {
	return config.ParseAny(configs)
}

func renderAs(net *config.Network, syntax string) map[string]string {
	if syntax == "junos" {
		return net.RenderJunos()
	}
	return net.Render()
}

// Anonymize parses the configurations (text keyed by an arbitrary label,
// e.g. file name; Cisco-IOS-style and Junos-style syntaxes are
// auto-detected), runs the ConfMask pipeline, and returns the anonymized
// configurations keyed by hostname, in the input's syntax unless
// Options.OutputSyntax overrides it. It is AnonymizeContext with a
// background context: non-cancellable, no deadline.
func Anonymize(configs map[string]string, o Options) (map[string]string, *Report, error) {
	return AnonymizeContext(context.Background(), configs, o)
}

// AnonymizeContext is Anonymize with cancellation: the pipeline observes
// ctx between stages and between Algorithm 1 / strawman-2 iterations
// (where long runs spend their time) and returns ctx.Err() once it fires.
// Options.Progress, when set, observes the stage transitions.
func AnonymizeContext(ctx context.Context, configs map[string]string, o Options) (map[string]string, *Report, error) {
	opts, err := o.internal()
	if err != nil {
		return nil, nil, err
	}
	net, syntax, err := parseAny(configs)
	if err != nil {
		return nil, nil, err
	}
	if o.OutputSyntax != "" {
		syntax = o.OutputSyntax
	}
	anon, rep, err := anonymize.RunContext(ctx, net, opts)
	if err != nil {
		return nil, nil, err
	}
	if o.Progress != nil {
		o.Progress(StageRender, 0)
	}
	renderStart := time.Now()
	out := renderAs(anon, syntax)
	renderTime := time.Since(renderStart)
	stages := map[string]time.Duration{
		StagePreprocess:  rep.Timing.Preprocess,
		StageTopology:    rep.Timing.Topology,
		StageEquivalence: rep.Timing.RouteEquiv,
		StageRender:      renderTime,
	}
	if rep.Timing.RouteAnon > 0 {
		stages[StageAnonymity] = rep.Timing.RouteAnon
	}
	stageAlloc := map[string]uint64{
		StagePreprocess:  rep.Alloc.Preprocess,
		StageTopology:    rep.Alloc.Topology,
		StageEquivalence: rep.Alloc.RouteEquiv,
	}
	if rep.Timing.RouteAnon > 0 {
		stageAlloc[StageAnonymity] = rep.Alloc.RouteAnon
	}
	r := &Report{
		FakeHosts:    append([]string(nil), rep.FakeHosts...),
		FakeRouters:  append([]string(nil), rep.FakeRouters...),
		Iterations:   rep.EquivIterations,
		FiltersAdded: rep.EquivFilters + rep.AnonFilters,
		LinesAdded:   rep.AddedLines.Total(),
		LinesTotal:   rep.TotalLines,
		UC:           rep.UC,
		Duration:     rep.Timing.Total() + renderTime,
		Stages:       stages,
		StageAlloc:   stageAlloc,
	}
	for _, e := range rep.FakeEdges {
		r.FakeLinks = append(r.FakeLinks, e.A+"<->"+e.B)
	}
	return out, r, nil
}

// Verify re-simulates both configuration sets and returns an error unless
// they are functionally equivalent: identical forwarding paths between
// every pair of hosts present in the original network.
func Verify(original, anonymized map[string]string) error {
	o, _, err := parseAny(original)
	if err != nil {
		return fmt.Errorf("confmask: original: %w", err)
	}
	a, _, err := parseAny(anonymized)
	if err != nil {
		return fmt.Errorf("confmask: anonymized: %w", err)
	}
	so, err := sim.Simulate(o)
	if err != nil {
		return fmt.Errorf("confmask: simulate original: %w", err)
	}
	sa, err := sim.Simulate(a)
	if err != nil {
		return fmt.Errorf("confmask: simulate anonymized: %w", err)
	}
	hosts := o.Hosts()
	for _, h := range hosts {
		if a.Device(h) == nil {
			return fmt.Errorf("confmask: host %s missing from anonymized network", h)
		}
	}
	diffs := sim.DiffForwarding(so, sa, hosts)
	if len(diffs) > 0 {
		return fmt.Errorf("confmask: %d host pairs forward differently (first: %s→%s)", len(diffs), diffs[0].Src, diffs[0].Dst)
	}
	return nil
}

// ApplyPII applies the PII add-on stage: keyed prefix-preserving IP
// anonymization plus hostname substitution. It returns the rewritten
// configurations (keyed by new hostname) and the old→new hostname map,
// which the data owner keeps private.
func ApplyPII(configs map[string]string, key []byte) (map[string]string, map[string]string, error) {
	net, syntax, err := parseAny(configs)
	if err != nil {
		return nil, nil, err
	}
	anon, names := anonymize.ApplyPII(net, key)
	return renderAs(anon, syntax), names, nil
}

// Info describes a parsed network.
type Info struct {
	Routers, Hosts, Links int
	ConfigLines           int
	// MinSameDegree is k_d: the minimum number of routers sharing a
	// router degree (the network is k-degree anonymous for k ≤ k_d).
	MinSameDegree int
	// Protocols lists the routing protocols in use.
	Protocols []string
}

// Inspect parses configurations and reports the recoverable structure —
// exactly what an adversary extracts (§2.2 of the paper).
func Inspect(configs map[string]string) (*Info, error) {
	net, _, err := parseAny(configs)
	if err != nil {
		return nil, err
	}
	view, err := sim.Build(net)
	if err != nil {
		return nil, err
	}
	g := view.Topology()
	protos := map[string]bool{}
	for _, r := range net.Routers() {
		d := net.Device(r)
		for _, g := range d.IGPs() {
			protos[g.Proto.String()] = true
		}
		if d.BGP != nil {
			protos["bgp"] = true
		}
	}
	var plist []string
	for p := range protos {
		plist = append(plist, p)
	}
	sort.Strings(plist)
	return &Info{
		Routers:       len(net.Routers()),
		Hosts:         len(net.Hosts()),
		Links:         g.NumEdges(),
		ConfigLines:   net.LineStats().Total(),
		MinSameDegree: g.MinSameDegreeCount(),
		Protocols:     plist,
	}, nil
}

// Trace simulates the network and returns every forwarding path from host
// src to host dst as device-name sequences (ECMP branches included). The
// boolean reports whether traffic is delivered on all paths. A src the
// network does not configure is an error.
func Trace(configs map[string]string, src, dst string) ([][]string, bool, error) {
	net, _, err := parseAny(configs)
	if err != nil {
		return nil, false, err
	}
	if net.Device(src) == nil {
		return nil, false, fmt.Errorf("confmask: unknown src device %q", src)
	}
	snap, err := sim.Simulate(net)
	if err != nil {
		return nil, false, err
	}
	paths := snap.TraceFrom(src, dst)
	if len(paths) == 0 {
		return nil, false, fmt.Errorf("confmask: no path data for %s→%s (unknown hosts?)", src, dst)
	}
	ok := true
	var out [][]string
	for _, p := range paths {
		out = append(out, append([]string(nil), p.Hops...))
		if p.Status != sim.Delivered {
			ok = false
		}
	}
	return out, ok, nil
}

// Audit builds a pre-sharing review of an anonymized bundle: it re-checks
// functional equivalence, runs this repository's de-anonymization attacks
// against the output, and renders a Markdown report. safe is true when no
// red flag was found (the output may be shared as-is).
func Audit(original, anonymized map[string]string, o Options) (markdown string, safe bool, err error) {
	opts, err := o.internal()
	if err != nil {
		return "", false, err
	}
	on, _, err := parseAny(original)
	if err != nil {
		return "", false, err
	}
	an, _, err := parseAny(anonymized)
	if err != nil {
		return "", false, err
	}
	a, err := report.BuildFromNetworks("configuration bundle", on, an, opts)
	if err != nil {
		return "", false, err
	}
	return a.Markdown(), a.Safe(), nil
}

// SpecComparison reports how the specifications (reachability, waypoint,
// load-balance policies) mined from an anonymized network relate to the
// original's — the utility evidence a data holder can attach when sharing.
type SpecComparison struct {
	// Kept / Missing / Introduced are canonical policy strings.
	Kept, Missing, Introduced []string
	// KeptFraction is |Kept| / |original specs|.
	KeptFraction float64
	// IntroducedFakeFraction is the share of introduced policies that
	// only reference fake hosts (benign by construction).
	IntroducedFakeFraction float64
}

// MineSpecs simulates the network and mines its specification set in
// Config2Spec's shape — per (source router, destination host) policies:
// Reachability(router→host), Waypoint(router→host via device), and
// LoadBalance(router→host over n paths), as canonical strings.
func MineSpecs(configs map[string]string) ([]string, error) {
	net, _, err := parseAny(configs)
	if err != nil {
		return nil, err
	}
	snap, err := sim.Simulate(net)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range spec.Mine(snap, net.Routers(), net.Hosts()) {
		out = append(out, p.Key())
	}
	return out, nil
}

// CompareSpecs mines both networks and diffs their specification sets.
func CompareSpecs(original, anonymized map[string]string) (*SpecComparison, error) {
	o, _, err := parseAny(original)
	if err != nil {
		return nil, err
	}
	a, _, err := parseAny(anonymized)
	if err != nil {
		return nil, err
	}
	so, err := sim.Simulate(o)
	if err != nil {
		return nil, err
	}
	sa, err := sim.Simulate(a)
	if err != nil {
		return nil, err
	}
	origSpecs := spec.Mine(so, o.Routers(), o.Hosts())
	anonSpecs := spec.Mine(sa, a.Routers(), a.Hosts())
	cmp := spec.Compare(origSpecs, anonSpecs, spec.IsFakeBySuffix())
	out := &SpecComparison{
		KeptFraction:           cmp.KeptFraction(),
		IntroducedFakeFraction: cmp.FakeFraction(),
	}
	for _, p := range cmp.Kept {
		out.Kept = append(out.Kept, p.Key())
	}
	for _, p := range cmp.Missing {
		out.Missing = append(out.Missing, p.Key())
	}
	for _, p := range cmp.Introduced {
		out.Introduced = append(out.Introduced, p.Key())
	}
	return out, nil
}

// RouteInfo is one forwarding-table entry of a simulated router.
type RouteInfo struct {
	// Prefix is the destination in CIDR form.
	Prefix string
	// Source is the installing protocol: connected, static, ebgp, eigrp,
	// ospf, rip, or ibgp.
	Source string
	// Metric is the protocol metric (0 for connected/static).
	Metric int
	// NextHops lists the next-hop devices with outgoing interfaces as
	// "device (interface)".
	NextHops []string
}

// Routes simulates the network and returns the named router's forwarding
// table in prefix order — the `show ip route` of the simulator, useful
// for debugging shared bundles without real hardware.
func Routes(configs map[string]string, router string) ([]RouteInfo, error) {
	net, _, err := parseAny(configs)
	if err != nil {
		return nil, err
	}
	if d := net.Device(router); d == nil {
		return nil, fmt.Errorf("confmask: unknown device %q", router)
	}
	snap, err := sim.Simulate(net)
	if err != nil {
		return nil, err
	}
	return routeTable(snap, router), nil
}

// routeTable is Routes over an already simulated network.
func routeTable(snap *sim.Snapshot, router string) []RouteInfo {
	fib := snap.FIB(router)
	var out []RouteInfo
	for _, p := range fib.Prefixes() {
		rt := fib[p]
		info := RouteInfo{Prefix: p.String(), Source: rt.Source.String(), Metric: rt.Metric}
		for _, nh := range rt.NextHops {
			dev, iface := snap.NextHopNames(nh)
			info.NextHops = append(info.NextHops, fmt.Sprintf("%s (%s)", dev, iface))
		}
		out = append(out, info)
	}
	return out
}

// ExampleNetworks lists the built-in evaluation networks (the paper's
// Table 2) available to GenerateExample.
func ExampleNetworks() []string {
	var out []string
	for _, s := range netgen.Catalog() {
		out = append(out, s.Name)
	}
	return out
}

// GenerateExample builds one of the built-in evaluation networks and
// returns its configurations keyed by hostname. Accepted names are the
// Table 2 IDs ("A".."H") or names ("Enterprise", "FatTree04", ...).
func GenerateExample(name string) (map[string]string, error) {
	s, err := netgen.ByID(name)
	if err != nil {
		return nil, err
	}
	cfg, err := s.Build()
	if err != nil {
		return nil, err
	}
	return cfg.Render(), nil
}

// ReadConfigDir loads every configuration file in dir, keyed by file
// name. Subdirectories, non-regular files (sockets, devices, dangling
// symlinks), hidden files, and editor leftovers (*.bak, *.orig, *.swp,
// *.tmp, *~) are skipped — a real config drop often carries those, and
// parsing a backup copy would silently double a router.
func ReadConfigDir(dir string) (map[string]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || skipConfigFile(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		// Stat (not the entry's Lstat-like Type) so a symlink counts as
		// what it points at; anything not a regular file is skipped.
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out[e.Name()] = string(data)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("confmask: no configuration files in %s", dir)
	}
	return out, nil
}

// skipConfigFile reports whether a directory entry is clearly not a
// configuration: hidden files and common backup/editor suffixes.
func skipConfigFile(name string) bool {
	if strings.HasPrefix(name, ".") || strings.HasSuffix(name, "~") {
		return true
	}
	switch strings.ToLower(filepath.Ext(name)) {
	case ".bak", ".orig", ".swp", ".tmp":
		return true
	}
	return false
}

// WriteConfigDir writes configurations into dir (created if needed), one
// ".cfg" file per device.
func WriteConfigDir(dir string, configs map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, text := range configs {
		fn := name
		if !strings.HasSuffix(fn, ".cfg") {
			fn += ".cfg"
		}
		if err := os.WriteFile(filepath.Join(dir, fn), []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}
