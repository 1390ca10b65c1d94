// Package experiments regenerates every table and figure of the paper's
// evaluation (§7): Table 2 (networks), Figs. 5–16, and Table 3 (injected
// line breakdown). Each experiment returns structured rows; the
// cmd/confmask-bench binary renders them, and bench_test.go wraps them in
// testing.B benchmarks.
//
// Absolute values depend on the synthetic substrates (see DESIGN.md); the
// experiments reproduce the paper's *shape*: who wins, anonymity
// guarantees holding, correlation signs, parameter trends.
package experiments

import (
	"fmt"
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// Runner caches built networks, baseline simulations, and anonymization
// runs so that experiments sharing parameters do not repeat work.
type Runner struct {
	// Seed drives all pipeline randomness.
	Seed int64
	// Nets restricts the catalog (nil = all eight networks).
	Nets []netgen.Spec
	// Parallelism is passed through to the simulation engine (0 =
	// GOMAXPROCS). Results are identical at any setting, so cached runs
	// stay comparable.
	Parallelism int

	bases map[string]*baseData
	runs  map[runKey]*runData
}

// NewRunner returns a Runner over the full Table 2 catalog.
func NewRunner(seed int64) *Runner {
	return &Runner{
		Seed:  seed,
		Nets:  netgen.Catalog(),
		bases: make(map[string]*baseData),
		runs:  make(map[runKey]*runData),
	}
}

type runKey struct {
	netID    string
	kR, kH   int
	strategy anonymize.Strategy
}

// baseData is the original network plus its simulation artifacts. Its
// Snapshot traces paths on demand and caches them, so the experiments
// sharing a network walk each pair at most once.
type baseData struct {
	Spec netgen.Spec
	Cfg  *config.Network
	Snap *sim.Snapshot
	Topo *topology.Graph
}

// runData is one anonymization run plus its simulation artifacts.
type runData struct {
	Anon   *config.Network
	Report *anonymize.Report
	Snap   *sim.Snapshot
	Wall   time.Duration
}

// base builds (and caches) the original network artifacts.
func (r *Runner) base(spec netgen.Spec) (*baseData, error) {
	if b, ok := r.bases[spec.ID]; ok {
		return b, nil
	}
	cfg, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s: %w", spec.ID, err)
	}
	snap, err := sim.SimulateOpts(cfg, sim.Options{Parallelism: r.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("experiments: simulate %s: %w", spec.ID, err)
	}
	b := &baseData{
		Spec: spec,
		Cfg:  cfg,
		Snap: snap,
		Topo: snap.Net.Topology(),
	}
	r.bases[spec.ID] = b
	return b, nil
}

// run executes (and caches) one anonymization with the given parameters.
func (r *Runner) run(spec netgen.Spec, kR, kH int, strategy anonymize.Strategy) (*runData, error) {
	key := runKey{netID: spec.ID, kR: kR, kH: kH, strategy: strategy}
	if d, ok := r.runs[key]; ok {
		return d, nil
	}
	b, err := r.base(spec)
	if err != nil {
		return nil, err
	}
	opts := anonymize.DefaultOptions()
	opts.KR = kR
	opts.KH = kH
	opts.Seed = r.Seed
	opts.Strategy = strategy
	opts.MaxIterations = 4096
	opts.Parallelism = r.Parallelism
	start := time.Now()
	anon, rep, err := anonymize.Run(b.Cfg, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s k_R=%d k_H=%d %v: %w", spec.ID, kR, kH, strategy, err)
	}
	wall := time.Since(start)
	snap, err := sim.SimulateOpts(anon, sim.Options{Parallelism: r.Parallelism})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: simulate anonymized: %w", spec.ID, err)
	}
	d := &runData{
		Anon:   anon,
		Report: rep,
		Snap:   snap,
		Wall:   wall,
	}
	r.runs[key] = d
	return d, nil
}
