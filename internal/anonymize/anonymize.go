// Package anonymize implements the ConfMask anonymization pipeline of the
// paper (Fig. 3): preprocessing, topology anonymization (§4.2), route
// equivalence via Algorithm 1 (§5.2), route anonymity via Algorithm 2
// (§5.3), and the strawman baselines of §4.3 used in the evaluation.
//
// The pipeline only ever adds configuration — fake interfaces, fake hosts,
// network statements, eBGP neighbor statements, and distribute-list route
// filters — never editing or deleting an existing line. Combined with the
// SFE conditions enforced by Algorithm 1, the anonymized network is
// functionally equivalent to the original: every host-to-host forwarding
// path is preserved exactly.
package anonymize

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime/metrics"
	"time"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// Strategy selects the route-equivalence algorithm of step 2.1.
type Strategy int

const (
	// ConfMask is Algorithm 1: per-iteration global FIB scan, filtering
	// every wrong next hop over a fake link (§5.2).
	ConfMask Strategy = iota
	// Strawman1 filters every real host prefix on every fake interface
	// (§4.3). Fast but de-anonymizable: the unified pattern exposes the
	// fake links.
	Strawman1
	// Strawman2 fixes one divergent hop per host pair per iteration based
	// on traceroute comparisons (§4.3). Conservative but slow.
	Strawman2
)

func (s Strategy) String() string {
	switch s {
	case ConfMask:
		return "confmask"
	case Strawman1:
		return "strawman1"
	case Strawman2:
		return "strawman2"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a pipeline run. The zero value is not useful; start
// from DefaultOptions.
type Options struct {
	// KR is the topology anonymity parameter k_R (Definition 3.1).
	KR int
	// KH is the route anonymity parameter k_H: each real host gains
	// KH−1 fake twins (§5.3).
	KH int
	// NoiseP is Algorithm 2's filter probability p (the paper uses 0.1),
	// in [0, 1].
	NoiseP float64
	// Seed drives all randomness; equal seeds give identical outputs.
	Seed int64
	// Strategy selects the route-equivalence algorithm.
	Strategy Strategy
	// MaxIterations caps the fixing loops (Algorithm 1 / strawman 2).
	MaxIterations int
	// SkipRouteAnonymity disables step 2.2 (used by ablation benches).
	SkipRouteAnonymity bool
	// Parallelism bounds the simulation engine's worker pool; ≤ 0 uses
	// GOMAXPROCS and 1 forces sequential execution. The anonymized
	// output is identical at any setting (and any machine): the engine
	// only fans out independent per-router work.
	Parallelism int
	// FakeRouters enables the paper's §9 "network scale obfuscation"
	// extension: this many fake routers are added (with generated
	// configurations and fake links) before topology anonymization, so
	// the shared network also hides the router count. Functional
	// equivalence still holds: no original path can enter a fake router,
	// and Algorithm 1 filters any new path that tries. Only IGP networks
	// are supported — auto-generating believable BGP speakers is the open
	// problem the paper defers.
	FakeRouters int
	// Progress, when non-nil, is invoked at the start of every pipeline
	// stage ("preprocess", "topology", "equivalence", "anonymity") and
	// once per route-equivalence fixing iteration (iteration ≥ 1; 0 for
	// non-iterative stages). It runs synchronously on the pipeline
	// goroutine and must be fast.
	Progress func(stage string, iteration int)
	// Checkpoint, when non-nil, receives a resumable StageCheckpoint
	// after each completed stage ("topology", "equivalence",
	// "anonymity"). It runs synchronously on the pipeline goroutine;
	// persisting the snapshot (and any retries doing so) happens on the
	// job's time budget, which is intentional — a checkpoint that cannot
	// be stored is a job that cannot claim durability.
	Checkpoint func(*StageCheckpoint)
	// Resume, when non-nil, restarts the pipeline from the checkpoint:
	// stages up to and including Resume.Stage are skipped, the
	// intermediate network is reloaded from the checkpoint, and the RNG
	// is fast-forwarded to the recorded stream position, so the final
	// output is byte-identical to the uninterrupted run. The caller must
	// pass the same original configurations and options (including the
	// seed) as the interrupted run.
	Resume *StageCheckpoint
}

// progress reports a stage transition when a callback is configured.
func (o Options) progress(stage string, iteration int) {
	if o.Progress != nil {
		o.Progress(stage, iteration)
	}
}

// simOpts translates the pipeline options into engine options.
func (o Options) simOpts() sim.Options {
	return sim.Options{Parallelism: o.Parallelism}
}

// DefaultOptions returns the paper's default parameters: k_R = 6, k_H = 2,
// p = 0.1.
func DefaultOptions() Options {
	return Options{KR: 6, KH: 2, NoiseP: 0.1, Strategy: ConfMask, MaxIterations: 256}
}

// Timing records per-stage wall time (Fig. 16).
type Timing struct {
	Preprocess time.Duration
	Topology   time.Duration
	RouteEquiv time.Duration
	RouteAnon  time.Duration
}

// Total returns the end-to-end duration.
func (t Timing) Total() time.Duration {
	return t.Preprocess + t.Topology + t.RouteEquiv + t.RouteAnon
}

// Alloc records per-stage heap allocation (deltas of the runtime's
// cumulative /gc/heap/allocs:bytes, MemStats.TotalAlloc's counterpart, in
// bytes) — the memory analogue of Timing. Cumulative allocation is the
// observable that exposes quadratic blowups regardless of when the GC
// happens to run; live-heap peaks are sampled separately by the scale
// benchmark.
type Alloc struct {
	Preprocess uint64
	Topology   uint64
	RouteEquiv uint64
	RouteAnon  uint64
}

// Total returns the end-to-end allocation.
func (a Alloc) Total() uint64 {
	return a.Preprocess + a.Topology + a.RouteEquiv + a.RouteAnon
}

// totalAlloc reads the process's cumulative allocated-bytes counter
// through runtime/metrics, which, unlike ReadMemStats, does not stop the
// world.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Report describes everything a pipeline run changed.
type Report struct {
	// FakeEdges are the router-to-router links added for k_R anonymity.
	FakeEdges []topology.Edge
	// FakeHosts are the twin hosts added for k_H anonymity.
	FakeHosts []string
	// FakeRouters are the routers added by the scale-obfuscation
	// extension (empty unless Options.FakeRouters > 0).
	FakeRouters []string
	// EquivIterations counts route-equivalence fixing iterations.
	EquivIterations int
	// EquivFilters counts deny rules added by step 2.1.
	EquivFilters int
	// AnonFilters counts deny rules added (and kept) by step 2.2.
	AnonFilters int
	// AddedLines is the injected-line breakdown (Table 3).
	AddedLines config.Stats
	// TotalLines is the anonymized network's line count P_l.
	TotalLines int
	// UC is the configuration utility U_C = 1 − N_l/P_l.
	UC float64
	// Timing is the per-stage wall time.
	Timing Timing
	// Alloc is the per-stage heap allocation.
	Alloc Alloc
}

// Run anonymizes a copy of cfg and returns it with a report; cfg itself is
// not modified. It returns an error when the input fails to simulate, when
// k_R exceeds the router count, or when a fixing loop fails to converge
// within Options.MaxIterations. It is RunContext with a background
// context: non-cancellable, no deadline.
func Run(cfg *config.Network, opts Options) (*config.Network, *Report, error) {
	return RunContext(context.Background(), cfg, opts)
}

// RunContext is Run with cancellation: the pipeline observes ctx between
// stages and between fixing-loop iterations (where long runs spend their
// time), returning ctx.Err() as soon as it fires. A cancelled run returns
// no partial output.
func RunContext(ctx context.Context, cfg *config.Network, opts Options) (*config.Network, *Report, error) {
	if opts.KR < 1 || opts.KH < 1 {
		return nil, nil, fmt.Errorf("anonymize: k_R and k_H must be ≥ 1 (got %d, %d)", opts.KR, opts.KH)
	}
	if !(opts.NoiseP >= 0 && opts.NoiseP <= 1) {
		return nil, nil, fmt.Errorf("anonymize: noise probability p must lie in [0, 1] (got %v)", opts.NoiseP)
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 256
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	src := newCountingSource(opts.Seed)
	rng := rand.New(src)
	rep := &Report{}
	origStats := cfg.LineStats()

	var (
		out     *config.Network
		pool    *netaddr.Pool
		err     error
		resumed = 0 // rank of the checkpointed stage being resumed from
	)
	if opts.Resume != nil {
		out, pool, rep, err = resumeState(opts.Resume, src)
		if err != nil {
			return nil, nil, err
		}
		resumed = stageRank(opts.Resume.Stage)
	} else {
		out = cfg.Clone()
		pool = netaddr.NewPool(cfg.UsedPrefixes(), nil)
	}

	// Preprocessing: simulate the original network, recording its
	// topology, data plane, and per-router next hops as the baseline.
	// It reruns on resume rather than being checkpointed — it is a pure
	// function of the original input and checkpointing its large derived
	// state would cost more than recomputing it — but it is skipped
	// entirely when the checkpoint already covers every stage that reads
	// the baseline (a cross-job incremental resume of a finished run).
	var base *baseline
	var t0 time.Time
	needBase := resumed < stageRank("equivalence") ||
		(resumed < stageRank("anonymity") && !opts.SkipRouteAnonymity && opts.KH > 1)
	if needBase {
		opts.progress("preprocess", 0)
		t0 = time.Now()
		a0 := totalAlloc()
		base, err = newBaseline(cfg, opts.simOpts())
		if err != nil {
			return nil, nil, fmt.Errorf("anonymize: preprocessing: %w", err)
		}
		rep.Timing.Preprocess = time.Since(t0)
		rep.Alloc.Preprocess = totalAlloc() - a0
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	if resumed < stageRank("topology") {
		// Step 0.5 (extension, §9): scale obfuscation with fake routers.
		if opts.FakeRouters > 0 {
			names, err := addFakeRouters(out, pool, base, opts.FakeRouters, rng)
			if err != nil {
				return nil, nil, fmt.Errorf("anonymize: fake routers: %w", err)
			}
			rep.FakeRouters = names
		}

		// Step 1: topology anonymization.
		opts.progress("topology", 0)
		t0 = time.Now()
		a0 := totalAlloc()
		fake, err := anonymizeTopology(out, pool, base, opts, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("anonymize: topology: %w", err)
		}
		rep.FakeEdges = fake
		rep.Timing.Topology = time.Since(t0)
		rep.Alloc.Topology = totalAlloc() - a0
		opts.emitCheckpoint("topology", out, src, rep)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// equiv is the equivalence stage's last Snapshot, which seeds the
	// anonymity stage's view; nil when that stage was resumed past.
	var equiv *sim.Snapshot
	if resumed < stageRank("equivalence") {
		// Step 2.1: route equivalence.
		t0 = time.Now()
		a0 := totalAlloc()
		switch opts.Strategy {
		case ConfMask:
			equiv, rep.EquivIterations, rep.EquivFilters, err = routeEquivalence(ctx, out, base, opts)
		case Strawman1:
			opts.progress("equivalence", 1)
			equiv, rep.EquivIterations, rep.EquivFilters, err = strawman1(out, base, opts)
		case Strawman2:
			equiv, rep.EquivIterations, rep.EquivFilters, err = strawman2(ctx, out, base, opts)
		default:
			err = fmt.Errorf("unknown strategy %v", opts.Strategy)
		}
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, nil, ctxErr
			}
			return nil, nil, fmt.Errorf("anonymize: route equivalence (%v): %w", opts.Strategy, err)
		}
		rep.Timing.RouteEquiv = time.Since(t0)
		rep.Alloc.RouteEquiv = totalAlloc() - a0
		opts.emitCheckpoint("equivalence", out, src, rep)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	if resumed < stageRank("anonymity") {
		// Step 2.2: route anonymity.
		if !opts.SkipRouteAnonymity && opts.KH > 1 {
			opts.progress("anonymity", 0)
			t0 = time.Now()
			a0 := totalAlloc()
			hosts, filters, err := routeAnonymity(ctx, out, pool, base, equiv, opts, rng)
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, nil, ctxErr
				}
				return nil, nil, fmt.Errorf("anonymize: route anonymity: %w", err)
			}
			rep.FakeHosts = hosts
			rep.AnonFilters = filters
			rep.Timing.RouteAnon = time.Since(t0)
			rep.Alloc.RouteAnon = totalAlloc() - a0
			opts.emitCheckpoint("anonymity", out, src, rep)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	newStats := out.LineStats()
	rep.AddedLines = newStats.Sub(origStats)
	rep.TotalLines = newStats.Total()
	rep.UC = config.UtilityUC(cfg, out)
	return out, rep, nil
}

// baseline is the preprocessed view of the original network Algorithm 1
// compares against: its topology (edge set E) and its Snapshot, whose FIBs
// hold the original next hops (snap.Route(r, dest) is DP[r, dest]) and
// which sim.DiffForwarding checks the anonymized network against.
type baseline struct {
	cfg   *config.Network
	snap  *sim.Snapshot
	topo  *topology.Graph
	hosts []string
	// dests is every destination Algorithm 1 preserves: all host LAN
	// prefixes plus the external equivalence-class prefixes of §9
	// (Internet destinations originated via discard statics).
	dests []netip.Prefix
	// external is the subset of dests that are equivalence classes.
	external []netip.Prefix
}

func newBaseline(cfg *config.Network, simOpts sim.Options) (*baseline, error) {
	snap, err := sim.SimulateOpts(cfg, simOpts)
	if err != nil {
		return nil, err
	}
	b := &baseline{
		cfg:      cfg,
		snap:     snap,
		topo:     snap.Net.Topology(),
		hosts:    cfg.Hosts(),
		external: snap.Net.ExternalDestinations(),
	}
	for _, h := range b.hosts {
		b.dests = append(b.dests, snap.Net.HostPrefix[h])
	}
	b.dests = append(b.dests, b.external...)
	return b, nil
}
