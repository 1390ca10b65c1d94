package experiments

import (
	"fmt"
	"runtime"
	"time"

	"confmask/internal/anonymize"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// ScaleStage is one pipeline stage's wall clock and heap allocation.
type ScaleStage struct {
	MS         float64 `json:"ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// ScaleBenchRow is one network's scale measurement: control-plane
// simulation and data-plane extraction wall clock (digest-based vs fully
// materialized, each with sampled peak live heap), plus the full
// anonymization pipeline's per-stage wall clock and allocation.
type ScaleBenchRow struct {
	Net     string `json:"net"`
	Routers int    `json:"routers"`
	Hosts   int    `json:"hosts"`
	Links   int    `json:"links"`

	// SimulateMS is one control-plane simulation of the original network.
	SimulateMS float64 `json:"simulate_ms"`
	// ExtractDigestMS / ExtractFullMS time per-pair data-plane extraction
	// as 128-bit digests (transient per-destination engines, no H² path
	// materialization) vs as fully materialized path sets; the peak fields
	// are the highest live heap (runtime.MemStats.HeapInuse) sampled while
	// each extraction ran, after a forced GC baseline.
	ExtractDigestMS     float64 `json:"extract_digest_ms"`
	PeakHeapDigestBytes uint64  `json:"peak_heap_digest_bytes"`
	ExtractFullMS       float64 `json:"extract_full_ms"`
	PeakHeapFullBytes   uint64  `json:"peak_heap_full_bytes"`
	// ExtractFullSkipped marks nets whose fully materialized extraction
	// was not run: above fullExtractMaxHosts hosts the H² path-set plane
	// is the intractable strawman the digest plane replaces (FatTree32
	// would materialize ~270M paths), so the row reports digests only.
	ExtractFullSkipped bool `json:"extract_full_skipped,omitempty"`

	// Pipeline is the full anonymization run at the paper's default
	// parameters, keyed by stage ("preprocess", "topology", "equivalence",
	// "anonymity").
	Pipeline              map[string]ScaleStage `json:"pipeline"`
	PipelineTotalMS       float64               `json:"pipeline_total_ms"`
	PeakHeapPipelineBytes uint64                `json:"peak_heap_pipeline_bytes"`
	FakeEdges             int                   `json:"fake_edges"`
	EquivIterations       int                   `json:"equiv_iterations"`
}

// heapSampler polls the live-heap gauge on a short ticker and keeps the
// maximum. Sampling can miss a short spike between ticks; for the
// multi-second extractions measured here the error is a tick's worth of
// allocation, not a phase.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > s.peak {
				s.peak = ms.HeapInuse
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Peak stops the sampler and returns the highest HeapInuse observed.
func (s *heapSampler) Peak() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// fullExtractMaxHosts bounds the fully materialized data-plane strawman:
// its cost is H² pairs times ECMP width, which at 1024 hosts is hundreds
// of millions of paths — the measurement would dominate the whole bench.
const fullExtractMaxHosts = 512

// scaleBenchNets picks the scale trajectory: FatTree08 (the Table 2
// anchor) plus the whole scale catalog S1–S4, thousand-router networks
// included — the interned streaming SPF core and the path-free
// Algorithm 2 delivery checks brought FatTree32 and MultiRegion32x32
// inside the default budget. Smoke mode — the CI budget — keeps only
// FatTree08.
func (r *Runner) scaleBenchNets(smoke bool) []netgen.Spec {
	var out []netgen.Spec
	for _, s := range r.Nets {
		if s.Name == "FatTree08" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = append(out, r.Nets...)
	}
	if smoke {
		return out
	}
	return append(out, netgen.ScaleCatalog()...)
}

// ScaleBench measures the partition-parallel / memory-bounded scale path.
// Each measurement is a single run — the networks are large enough that
// one run dominates noise, and the artifact's claims (digest speedup,
// sub-quadratic peak heap) are order-of-magnitude, not percent-level.
func (r *Runner) ScaleBench(smoke bool) ([]ScaleBenchRow, error) {
	var rows []ScaleBenchRow
	simOpts := sim.Options{Parallelism: r.Parallelism}
	for _, spec := range r.scaleBenchNets(smoke) {
		cfg, err := spec.Build()
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s: %w", spec.ID, err)
		}
		view, err := sim.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", spec.ID, err)
		}
		hosts := cfg.Hosts()
		row := ScaleBenchRow{
			Net:     spec.Name,
			Routers: len(cfg.Routers()),
			Hosts:   len(hosts),
			Links:   view.Topology().NumEdges(),
		}

		t0 := time.Now()
		snap := sim.SimulateNetOpts(view, simOpts)
		row.SimulateMS = msSince(t0)

		// Digest extraction: transient engines, peak heap bounded by the
		// worker count times one destination's successor graph and one
		// source's walked paths.
		runtime.GC()
		hs := startHeapSampler()
		t0 = time.Now()
		dig := snap.PairDigestsFor(hosts)
		row.ExtractDigestMS = msSince(t0)
		row.PeakHeapDigestBytes = hs.Peak()
		runtime.KeepAlive(dig)

		// Full extraction: every host pair's path set materialized, the
		// pre-digest baseline the pipeline no longer pays. Beyond the host
		// cap the strawman itself is the bottleneck (hours of wall clock at
		// a thousand hosts), so the contrast is measured on the nets where
		// both sides terminate and skipped — explicitly — elsewhere.
		if len(hosts) <= fullExtractMaxHosts {
			runtime.GC()
			hs = startHeapSampler()
			t0 = time.Now()
			dp := snap.DataPlaneFor(hosts)
			row.ExtractFullMS = msSince(t0)
			row.PeakHeapFullBytes = hs.Peak()
			runtime.KeepAlive(dp)
			dp = nil
			_ = dp
		} else {
			row.ExtractFullSkipped = true
		}
		snap = nil
		_ = snap

		// Full pipeline at the paper's defaults; per-stage wall clock and
		// allocation come from the pipeline's own report.
		opts := anonymize.DefaultOptions()
		opts.Seed = r.Seed
		opts.Parallelism = r.Parallelism
		opts.MaxIterations = 4096
		runtime.GC()
		hs = startHeapSampler()
		_, rep, err := anonymize.Run(cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: pipeline: %w", spec.ID, err)
		}
		row.PeakHeapPipelineBytes = hs.Peak()
		row.Pipeline = map[string]ScaleStage{
			"preprocess":  {MS: ms(rep.Timing.Preprocess), AllocBytes: rep.Alloc.Preprocess},
			"topology":    {MS: ms(rep.Timing.Topology), AllocBytes: rep.Alloc.Topology},
			"equivalence": {MS: ms(rep.Timing.RouteEquiv), AllocBytes: rep.Alloc.RouteEquiv},
			"anonymity":   {MS: ms(rep.Timing.RouteAnon), AllocBytes: rep.Alloc.RouteAnon},
		}
		row.PipelineTotalMS = ms(rep.Timing.Total())
		row.FakeEdges = len(rep.FakeEdges)
		row.EquivIterations = rep.EquivIterations
		rows = append(rows, row)
	}
	return rows, nil
}

func ms(d time.Duration) float64   { return float64(d.Microseconds()) / 1000 }
func msSince(t0 time.Time) float64 { return ms(time.Since(t0)) }
