package service

import (
	"encoding/json"
	"expvar"
	rtmetrics "runtime/metrics"
	"sync"
	"time"
)

// histogram is a fixed-bucket wall-clock histogram in the expvar spirit:
// cheap to update, rendered as JSON on GET /metrics.
type histogram struct {
	mu  sync.Mutex
	n   int64
	sum time.Duration
	// counts[i] counts observations ≤ histogramBounds[i]; the last bucket
	// is +Inf.
	counts [len(histogramBounds) + 1]int64
}

var histogramBounds = [...]time.Duration{
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	time.Minute,
}

func (h *histogram) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += d
	for i, b := range histogramBounds {
		if d <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(histogramBounds)]++
}

// MarshalJSON renders {"count":N,"total_ms":T,"buckets":{"le_10ms":...}}.
func (h *histogram) MarshalJSON() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	buckets := map[string]int64{
		"le_10ms":  h.counts[0],
		"le_100ms": h.counts[1],
		"le_1s":    h.counts[2],
		"le_10s":   h.counts[3],
		"le_1m":    h.counts[4],
		"inf":      h.counts[5],
	}
	return json.Marshal(map[string]any{
		"count":    h.n,
		"total_ms": h.sum.Milliseconds(),
		"buckets":  buckets,
	})
}

// metrics aggregates the daemon's counters. The expvar types give atomic
// counters with expvar semantics, but instances are deliberately not
// published to the global expvar registry so that many Servers (tests!)
// can coexist in one process; GET /metrics renders them instead.
type metrics struct {
	JobsSubmitted expvar.Int // accepted POSTs, dedup hits excluded
	JobsDeduped   expvar.Int // POSTs answered by an existing job
	JobsRejected  expvar.Int // POSTs refused with 429 (queue full)
	JobsRunning   expvar.Int // gauge
	JobsDone      expvar.Int
	JobsFailed    expvar.Int
	JobsCancelled expvar.Int
	JobsPanicked  expvar.Int // pipeline panics converted to job failures
	JobsRequeued  expvar.Int // drained jobs journaled for the next start
	JobsRecovered expvar.Int // jobs re-enqueued by journal replay
	JournalErrors expvar.Int // journal/checkpoint writes that exhausted retries
	QueueDepth    expvar.Int // gauge
	QueriesTotal  expvar.Int // verification predicates answered
	QueryCacheHit expvar.Int // query batches served by an already-built engine

	JobsIncremental      expvar.Int // jobs seeded from another job's checkpoint
	StagesReused         expvar.Int // pipeline stages skipped via a base checkpoint
	IncrementalFallbacks expvar.Int // base-job requests that fell back to a full run

	LeasesExpired  expvar.Int // expired/released leases observed by the coordinator
	FencingRejects expvar.Int // journal writes refused for lost lease ownership
	RateLimited    expvar.Int // submits refused 429 by the per-tenant rate limiter
	LeasesHeld     expvar.Int // gauge: leases this node currently holds

	stageMu sync.Mutex
	stages  map[string]*histogram // per-stage wall clock
}

func newMetrics() *metrics {
	return &metrics{stages: make(map[string]*histogram)}
}

// observeStage records one wall-clock sample for a pipeline stage.
func (m *metrics) observeStage(stage string, d time.Duration) {
	m.stageMu.Lock()
	h, ok := m.stages[stage]
	if !ok {
		h = &histogram{}
		m.stages[stage] = h
	}
	m.stageMu.Unlock()
	h.observe(d)
}

// snapshot renders every counter and histogram as one JSON-able document.
func (m *metrics) snapshot() map[string]any {
	m.stageMu.Lock()
	stages := make(map[string]*histogram, len(m.stages))
	for k, v := range m.stages {
		stages[k] = v
	}
	m.stageMu.Unlock()
	return map[string]any{
		"jobs_submitted_total":        m.JobsSubmitted.Value(),
		"jobs_deduped_total":          m.JobsDeduped.Value(),
		"jobs_rejected_total":         m.JobsRejected.Value(),
		"jobs_done_total":             m.JobsDone.Value(),
		"jobs_failed_total":           m.JobsFailed.Value(),
		"jobs_cancelled_total":        m.JobsCancelled.Value(),
		"jobs_panicked_total":         m.JobsPanicked.Value(),
		"jobs_requeued_total":         m.JobsRequeued.Value(),
		"jobs_recovered_total":        m.JobsRecovered.Value(),
		"journal_errors_total":        m.JournalErrors.Value(),
		"jobs_running":                m.JobsRunning.Value(),
		"queue_depth":                 m.QueueDepth.Value(),
		"queries_total":               m.QueriesTotal.Value(),
		"query_cache_hits_total":      m.QueryCacheHit.Value(),
		"jobs_incremental_total":      m.JobsIncremental.Value(),
		"stages_reused_total":         m.StagesReused.Value(),
		"incremental_fallbacks_total": m.IncrementalFallbacks.Value(),
		"leases_expired_total":        m.LeasesExpired.Value(),
		"fencing_rejects_total":       m.FencingRejects.Value(),
		"rate_limited_total":          m.RateLimited.Value(),
		"leases_held":                 m.LeasesHeld.Value(),
		"stage_seconds":               stages,
		// Live-heap gauge, read at render time: the number an operator
		// watches while a thousand-router job runs. Cumulative per-stage
		// allocation rides on job events (prev_stage_alloc_bytes).
		"heap_inuse_bytes": heapInuse(),
	}
}

// heapInuse reads the live-heap gauge: the bytes of heap spans in use,
// objects plus the unused space in their spans (MemStats.HeapInuse),
// through runtime/metrics, which does not stop the world.
func heapInuse() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapAllocs reads the process's cumulative heap allocation in bytes
// (MemStats.TotalAlloc) through runtime/metrics, which does not stop the
// world.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// stageTimer turns the pipeline's progress callbacks into per-stage
// duration and allocation samples: each transition closes the previous
// stage's clock and allocation window. One timer lives per job run, called
// only from that job's worker goroutine. The allocation delta is the
// process-wide cumulative heap allocation (heapAllocs), so concurrent jobs
// bleed into each other's numbers — the event field documents this; exact
// per-stage attribution comes from the pipeline's own Report.StageAlloc.
type stageTimer struct {
	m     *metrics
	stage string
	start time.Time
	alloc uint64
}

// transition switches the open stage clock, returning the stage it closed,
// its wall-clock duration, and the bytes allocated while it was open (""
// when no stage ended) so callers can put the sample on the job's event
// log as well.
func (t *stageTimer) transition(stage string, now time.Time) (closed string, d time.Duration, alloc uint64) {
	if t.stage == stage {
		return "", 0, 0 // equivalence iterations stay within one stage clock
	}
	total := heapAllocs()
	if t.stage != "" {
		closed, d, alloc = t.stage, now.Sub(t.start), total-t.alloc
		t.m.observeStage(closed, d)
	}
	t.stage, t.start, t.alloc = stage, now, total
	return closed, d, alloc
}

// finish closes the clock of the last open stage.
func (t *stageTimer) finish(now time.Time) (closed string, d time.Duration, alloc uint64) {
	return t.transition("", now)
}
