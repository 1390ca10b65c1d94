package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
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
	snap      *sim.Snapshot
	base      *sim.Snapshot
	hosts     map[string]bool
	baseHosts map[string]bool
	workers   int
	timeout   time.Duration
	queries   atomic.Int64
}

// New builds an engine over snap.
func New(snap *sim.Snapshot, opts Options) *Engine {
	hostSet := func(s *sim.Snapshot) map[string]bool {
		if s == nil {
			return nil
		}
		m := make(map[string]bool)
		for _, h := range s.Hosts() {
			m[h] = true
		}
		return m
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		snap:      snap,
		base:      opts.Baseline,
		hosts:     hostSet(snap),
		baseHosts: hostSet(opts.Baseline),
		workers:   w,
		timeout:   opts.Timeout,
	}
}

// FromConfigs parses a rendered configuration set (Cisco-IOS-style or
// Junos-style, auto-detected off the lexicographically first file) and
// simulates it, returning the snapshot an Engine serves from. This is how
// the daemon rebuilds query state from a journaled job: the original
// request configs and the anonymized result configs are both plain text.
func FromConfigs(configs map[string]string, parallelism int) (*sim.Snapshot, error) {
	if len(configs) == 0 {
		return nil, errors.New("query: empty configuration set")
	}
	keys := make([]string, 0, len(configs))
	for k := range configs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var net *config.Network
	var err error
	if config.DetectSyntax(configs[keys[0]]) == "junos" {
		net, err = config.ParseJunosNetwork(configs)
	} else {
		net, err = config.ParseNetwork(configs)
	}
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
	out := make([]Result, len(qs))
	workers := e.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i := range qs {
			out[i] = e.eval(ctx, i, qs[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				out[i] = e.eval(ctx, i, qs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// eval answers one query.
func (e *Engine) eval(ctx context.Context, idx int, q Query) Result {
	e.queries.Add(1)
	r := Result{Index: idx, ID: q.ID, Kind: q.Kind}
	if e.timeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	if err := e.validate(q); err != nil {
		r.Error = err.Error()
		return r
	}
	if err := ctx.Err(); err != nil {
		r.Error = "query aborted: " + err.Error()
		return r
	}
	switch q.Kind {
	case Reachability:
		l := e.snap.ListFrom(q.Src, q.Dst)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0
	case Isolation:
		l := e.snap.ListFrom(q.Src, q.Dst)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered == 0
	case Waypoint:
		l := e.snap.ListFrom(q.Src, q.Dst)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0
		for i := 0; i < l.Len() && r.Holds; i++ {
			r.Holds = l.Status(i) != sim.Delivered || l.Passes(i, q.Via)
		}
	case PathDiff:
		anon := e.snap.ListFrom(q.Src, q.Dst)
		if err := ctx.Err(); err != nil {
			r.Error = "query aborted: " + err.Error()
			return r
		}
		orig := e.base.ListFrom(q.Src, q.Dst)
		r.Status, r.Delivered = classify(anon)
		r.Paths = anon.Len()
		r.Holds = orig.Equal(anon)
	case WhatIf:
		f, err := q.failure()
		if err != nil {
			r.Error = err.Error()
			return r
		}
		baseline := e.snap.ListFrom(q.Src, q.Dst)
		if err := ctx.Err(); err != nil {
			r.Error = "query aborted: " + err.Error()
			return r
		}
		l := e.snap.ListUnderFailure(q.Src, q.Dst, f)
		r.Status, r.Delivered = classify(l)
		r.Paths = l.Len()
		r.Holds = r.Delivered > 0
		r.Changed = !baseline.Equal(l)
	}
	return r
}

// validate rejects malformed queries with per-query errors. Device
// membership is checked against the snapshot's shared device table
// (sim.Snapshot.HasDevice), never by probing FIBs.
func (e *Engine) validate(q Query) error {
	switch q.Kind {
	case Reachability, Waypoint, PathDiff, Isolation, WhatIf:
	case "":
		return errors.New("missing kind")
	default:
		return fmt.Errorf("unknown kind %q", q.Kind)
	}
	if q.Src == "" || q.Dst == "" {
		return errors.New("src and dst are required")
	}
	if !e.snap.HasDevice(q.Src) {
		return fmt.Errorf("unknown src device %q", q.Src)
	}
	if !e.hosts[q.Dst] {
		return fmt.Errorf("dst %q is not a host", q.Dst)
	}
	switch q.Kind {
	case Waypoint:
		if q.Via == "" {
			return errors.New("waypoint query needs via")
		}
		if !e.snap.HasDevice(q.Via) {
			return fmt.Errorf("unknown via device %q", q.Via)
		}
	case PathDiff:
		if e.base == nil {
			return errors.New("pathdiff needs a baseline (original) snapshot")
		}
		if !e.base.HasDevice(q.Src) {
			return fmt.Errorf("src %q not in the original network", q.Src)
		}
		if !e.baseHosts[q.Dst] {
			return fmt.Errorf("dst %q not a host of the original network", q.Dst)
		}
	case WhatIf:
		f, err := q.failure()
		if err != nil {
			return err
		}
		for _, dev := range []string{f.Node, f.LinkA, f.LinkB} {
			if dev != "" && !e.snap.HasDevice(dev) {
				return fmt.Errorf("unknown failed device %q", dev)
			}
		}
	}
	return nil
}
