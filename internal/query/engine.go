package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// Options configures an Engine.
type Options struct {
	// Baseline is the original (pre-anonymization) network's snapshot;
	// required for pathdiff queries, unused otherwise.
	Baseline *sim.Snapshot
	// Workers bounds the fan-out of Run; 0 selects GOMAXPROCS. As
	// everywhere in this codebase, parallelism never changes results:
	// workers fill index-addressed slots.
	Workers int
	// Timeout is the per-query budget; a query that exceeds it reports an
	// error Result instead of an answer. Zero means no limit.
	Timeout time.Duration
}

// Engine answers verification queries over a simulated snapshot. All
// answers are served from the snapshot's per-destination path engines,
// which read each destination's successor graph from the route columns
// and cache each source's walked listing (sim.Listing), so a repeated
// pair is never walked again and a warmed engine answers batches in
// cache-lookup time. Every predicate reads listings in place: answering
// a query names no hop.
type Engine struct {
	snap    *sim.Snapshot
	base    *sim.Snapshot
	workers int
	timeout time.Duration
	queries atomic.Int64
}

// New builds an engine over snap.
func New(snap *sim.Snapshot, opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{snap: snap, base: opts.Baseline, workers: w, timeout: opts.Timeout}
}

// FromConfigs parses a rendered configuration set (Cisco-IOS-style or
// Junos-style, detected by config.ParseAny) and simulates it, returning
// the snapshot an Engine serves from. This is how the daemon rebuilds
// query state from a journaled job: the original request configs and the
// anonymized result configs are both plain text.
func FromConfigs(configs map[string]string, parallelism int) (*sim.Snapshot, error) {
	if len(configs) == 0 {
		return nil, errors.New("query: empty configuration set")
	}
	net, _, err := config.ParseAny(configs)
	if err != nil {
		return nil, err
	}
	return sim.SimulateOpts(net, sim.Options{Parallelism: parallelism})
}

// Stats reports work counters: total queries evaluated, and how the
// snapshot served what-if traces (see sim.WhatIfStats).
type Stats struct {
	Queries        int64 `json:"queries"`
	WhatIfRetraced int64 `json:"whatif_retraced"`
	WhatIfReused   int64 `json:"whatif_reused"`
}

// Stats returns the engine's counters.
func (e *Engine) Stats() Stats {
	retraced, reused := e.snap.WhatIfStats()
	return Stats{Queries: e.queries.Load(), WhatIfRetraced: retraced, WhatIfReused: reused}
}

// Run answers a batch. Result i answers query i; the output is identical
// at any worker count, entry for entry — workers only fill
// index-addressed slots. Per-query failures (unknown device, malformed
// failure, timeout) land in Result.Error; Run itself never fails.
func (e *Engine) Run(ctx context.Context, qs []Query) []Result {
	e.queries.Add(int64(len(qs)))
	out := make([]Result, len(qs))
	sim.ForEachIndex(e.workers, len(qs), func(i int) { out[i] = e.eval(ctx, i, &qs[i]) })
	return out
}

// eval answers one query. Its budget is a deadline, Timeout after the
// query starts, read against the monotonic clock wherever the query may
// stop: after validation, and between the two listings pathdiff and
// what-if read. So a query arms no timer, and the batch context is
// checked at the same points.
func (e *Engine) eval(ctx context.Context, idx int, q *Query) Result {
	var deadline time.Duration
	if e.timeout != 0 {
		deadline = time.Since(epoch) + e.timeout
	}
	r := Result{Index: idx, ID: q.ID, Kind: q.Kind}
	t, err := e.resolve(q)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	if err := e.aborted(ctx, deadline); err != nil {
		r.Error = "query aborted: " + err.Error()
		return r
	}
	switch q.Kind {
	case Reachability:
		l := t.dst.List(t.src)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0
	case Isolation:
		l := t.dst.List(t.src)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered == 0
	case Waypoint:
		l := t.dst.List(t.src)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0 && l.DeliveredVia(t.via)
	case PathDiff:
		anon := t.dst.List(t.src)
		if err := e.aborted(ctx, deadline); err != nil {
			r.Error = "query aborted: " + err.Error()
			return r
		}
		orig := t.baseDst.List(t.baseSrc)
		r.Status, r.Delivered = classify(anon)
		r.Paths = anon.Len()
		r.Holds = orig.Equal(anon)
	case WhatIf:
		baseline := t.dst.List(t.src)
		if err := e.aborted(ctx, deadline); err != nil {
			r.Error = "query aborted: " + err.Error()
			return r
		}
		l := t.dst.ListUnderFailure(t.src, t.f)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0
		r.Changed = !baseline.Equal(l)
	}
	return r
}

// epoch is the origin of query deadlines: time.Since(epoch) reads the
// monotonic clock alone, at half the cost of time.Now.
var epoch = time.Now()

// aborted returns why a query must stop, or nil: the batch context ended
// (its error first, as a context derived from it would report), or the
// query's deadline passed.
func (e *Engine) aborted(ctx context.Context, deadline time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.timeout != 0 && time.Since(epoch) >= deadline {
		return context.DeadlineExceeded
	}
	return nil
}

// target is what validating a query resolved, which evaluation reads
// instead of resolving again: its source (and via) device index and
// destination in the snapshot, the same in the baseline for pathdiff, and
// its parsed failure.
type target struct {
	src, via, baseSrc int32
	dst, baseDst      sim.Dest
	f                 sim.Failure
}

// resolve validates q, rejecting a malformed query with a per-query
// error, and returns its target. Device membership is checked against
// the snapshot's shared device table (sim.Snapshot.Device), never by
// probing FIBs.
func (e *Engine) resolve(q *Query) (target, error) {
	var t target
	switch q.Kind {
	case Reachability, Waypoint, PathDiff, Isolation, WhatIf:
	case "":
		return t, errors.New("missing kind")
	default:
		return t, fmt.Errorf("unknown kind %q", q.Kind)
	}
	if q.Src == "" || q.Dst == "" {
		return t, errors.New("src and dst are required")
	}
	var ok bool
	if t.src, ok = e.snap.Device(q.Src); !ok {
		return t, fmt.Errorf("unknown src device %q", q.Src)
	}
	if t.dst, ok = e.snap.Dest(q.Dst); !ok {
		return t, fmt.Errorf("dst %q is not a host", q.Dst)
	}
	switch q.Kind {
	case Waypoint:
		if q.Via == "" {
			return t, errors.New("waypoint query needs via")
		}
		if t.via, ok = e.snap.Device(q.Via); !ok {
			return t, fmt.Errorf("unknown via device %q", q.Via)
		}
	case PathDiff:
		if e.base == nil {
			return t, errors.New("pathdiff needs a baseline (original) snapshot")
		}
		if t.baseSrc, ok = e.base.Device(q.Src); !ok {
			return t, fmt.Errorf("src %q not in the original network", q.Src)
		}
		if t.baseDst, ok = e.base.Dest(q.Dst); !ok {
			return t, fmt.Errorf("dst %q not a host of the original network", q.Dst)
		}
	case WhatIf:
		f, err := q.failure()
		if err != nil {
			return t, err
		}
		for _, dev := range [...]string{f.Node, f.LinkA, f.LinkB} {
			if _, ok := e.snap.Device(dev); dev != "" && !ok {
				return t, fmt.Errorf("unknown failed device %q", dev)
			}
		}
		t.f = f
	}
	return t, nil
}
