package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"confmask/internal/netgen"
	"confmask/internal/sim"
)

func mustSnap(t testing.TB, name string, parallelism int) *sim.Snapshot {
	t.Helper()
	spec, err := netgen.ByID(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.SimulateOpts(cfg, sim.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// traceAll traces every ordered host pair of snap into its path caches,
// one destination per worker slot: the full data-plane extraction a
// batch is measured against.
func traceAll(snap *sim.Snapshot) {
	hosts := snap.Hosts()
	sim.ForEachIndex(runtime.GOMAXPROCS(0), len(hosts), func(j int) {
		for _, src := range hosts {
			if src != hosts[j] {
				snap.TraceFrom(src, hosts[j])
			}
		}
	})
}

// mixedBatch builds a deterministic batch cycling through every kind,
// drawn from the snapshot's real hosts, devices, and links. PathDiff
// queries are emitted only when withDiff is set (the engine then needs a
// baseline).
func mixedBatch(snap *sim.Snapshot, n int, seed int64, withDiff bool) []Query {
	rng := rand.New(rand.NewSource(seed))
	hosts := snap.Hosts()
	devices := snap.Devices()
	links := snap.Net.Links
	pair := func() (string, string) {
		s := hosts[rng.Intn(len(hosts))]
		d := hosts[rng.Intn(len(hosts))]
		for d == s {
			d = hosts[rng.Intn(len(hosts))]
		}
		return s, d
	}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		src, dst := pair()
		q := Query{ID: fmt.Sprintf("q%04d", i), Src: src, Dst: dst}
		switch i % 5 {
		case 0:
			q.Kind = Reachability
		case 1:
			q.Kind = Waypoint
			q.Via = devices[rng.Intn(len(devices))]
		case 2:
			q.Kind = Isolation
		case 3:
			q.Kind = WhatIf
			if rng.Intn(2) == 0 && len(links) > 0 {
				l := links[rng.Intn(len(links))]
				q.FailLink = l.A.Device + "<->" + l.B.Device
			} else {
				q.FailNode = devices[rng.Intn(len(devices))]
			}
		case 4:
			if withDiff {
				q.Kind = PathDiff
			} else {
				q.Kind = Reachability
			}
		}
		out = append(out, q)
	}
	return out
}

// TestWaypointECMPFanOut pins waypoint semantics on the fat-tree's ECMP
// spread: cross-pod traffic fans out over both pod aggregation routers,
// so no single aggregation router is a waypoint, while the shared edge
// routers are.
func TestWaypointECMPFanOut(t *testing.T) {
	snap := mustSnap(t, "G", 0) // FatTree04
	e := New(snap, Options{})
	ctx := context.Background()

	// Sanity: the pair actually fans out.
	if ps := snap.TraceFrom("h0-0-0", "h3-1-1"); len(ps) < 2 {
		t.Fatalf("expected ECMP fan-out, got %d paths", len(ps))
	}

	run1 := func(q Query) Result {
		rs := e.Run(ctx, []Query{q})
		if rs[0].Error != "" {
			t.Fatalf("query %+v errored: %s", q, rs[0].Error)
		}
		return rs[0]
	}

	// The source's edge router is on every path.
	r := run1(Query{Kind: Waypoint, Src: "h0-0-0", Dst: "h3-1-1", Via: "edge0-0"})
	if !r.Holds {
		t.Fatalf("edge0-0 should be a waypoint for h0-0-0->h3-1-1: %+v", r)
	}
	// The destination's edge router too.
	r = run1(Query{Kind: Waypoint, Src: "h0-0-0", Dst: "h3-1-1", Via: "edge3-1"})
	if !r.Holds {
		t.Fatalf("edge3-1 should be a waypoint: %+v", r)
	}
	// No single aggregation router catches all ECMP branches.
	for _, via := range []string{"agg0-0", "agg0-1", "agg3-0", "agg3-1"} {
		r = run1(Query{Kind: Waypoint, Src: "h0-0-0", Dst: "h3-1-1", Via: via})
		if r.Holds {
			t.Fatalf("%s must not be a waypoint under ECMP fan-out", via)
		}
	}
	// Same-edge traffic never climbs to the core.
	r = run1(Query{Kind: Waypoint, Src: "h0-0-0", Dst: "h0-0-1", Via: "core0"})
	if r.Holds {
		t.Fatal("core0 must not be a waypoint for same-edge traffic")
	}
	if r.Delivered == 0 {
		t.Fatal("same-edge traffic should be delivered")
	}
}

// TestWhatIfQuerySemantics exercises the failure model through the query
// layer: ECMP absorbs a single aggregation link failure, while failing
// the destination's only edge router black-holes the pair.
func TestWhatIfQuerySemantics(t *testing.T) {
	snap := mustSnap(t, "G", 0)
	e := New(snap, Options{})
	ctx := context.Background()

	rs := e.Run(ctx, []Query{
		{Kind: WhatIf, Src: "h0-0-0", Dst: "h3-1-1", FailLink: "edge0-0<->agg0-0"},
		{Kind: WhatIf, Src: "h0-0-0", Dst: "h3-1-1", FailNode: "edge3-1"},
		{Kind: WhatIf, Src: "h0-0-0", Dst: "h0-0-1", FailNode: "core0"},
	})
	for i, r := range rs {
		if r.Error != "" {
			t.Fatalf("query %d errored: %s", i, r.Error)
		}
	}
	// ECMP survives one agg link: still delivered, but the path set shrank.
	if !rs[0].Holds || !rs[0].Changed || rs[0].Status != "delivered" {
		t.Fatalf("agg-link failure: %+v, want holds+changed+delivered", rs[0])
	}
	// Losing the destination edge router is fatal.
	if rs[1].Holds || rs[1].Status != "blackholed" || !rs[1].Changed {
		t.Fatalf("edge failure: %+v, want blackholed", rs[1])
	}
	// Same-edge traffic never touches the core: unchanged.
	if !rs[2].Holds || rs[2].Changed {
		t.Fatalf("core failure must not affect same-edge traffic: %+v", rs[2])
	}
}

// TestBatchByteIdenticalAcrossParallelism is the determinism pin: the
// JSON-rendered batch results are byte-identical between a sequential
// engine over a sequentially simulated snapshot and a parallel engine
// over a parallel-simulated one.
func TestBatchByteIdenticalAcrossParallelism(t *testing.T) {
	batchOn := func(workers, parallelism int) []byte {
		snap := mustSnap(t, "G", parallelism)
		e := New(snap, Options{Workers: workers, Baseline: snap})
		qs := mixedBatch(snap, 400, 71, true)
		rs := e.Run(context.Background(), qs)
		buf, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	seq := batchOn(1, 1)
	par := batchOn(8, 0)
	if string(seq) != string(par) {
		t.Fatal("batch results differ between parallelism settings")
	}
}

// TestQueryValidationErrors checks that malformed queries fail per-query,
// deterministically, without poisoning the rest of the batch.
func TestQueryValidationErrors(t *testing.T) {
	snap := mustSnap(t, "A", 1)
	e := New(snap, Options{})
	hosts := snap.Hosts()
	rs := e.Run(context.Background(), []Query{
		{Kind: Reachability, Src: "nope", Dst: hosts[0]},
		{Kind: Reachability, Src: hosts[0], Dst: "router-not-host"},
		{Kind: Waypoint, Src: hosts[0], Dst: hosts[1]},
		{Kind: WhatIf, Src: hosts[0], Dst: hosts[1], FailLink: "garbled"},
		{Kind: WhatIf, Src: hosts[0], Dst: hosts[1]},
		{Kind: PathDiff, Src: hosts[0], Dst: hosts[1]},
		{Kind: "bogus", Src: hosts[0], Dst: hosts[1]},
		{Src: hosts[0], Dst: hosts[1]},
		{Kind: Reachability, Src: hosts[0], Dst: hosts[1]},
	})
	for i, r := range rs[:8] {
		if r.Error == "" {
			t.Fatalf("query %d should have errored: %+v", i, r)
		}
	}
	if rs[8].Error != "" || !rs[8].Holds {
		t.Fatalf("valid trailing query should still answer: %+v", rs[8])
	}
}

// TestQueryAbort covers the cancellation paths: an already-cancelled
// batch context and a negative per-query budget both yield per-query
// error results, never panics or partial batches.
func TestQueryAbort(t *testing.T) {
	snap := mustSnap(t, "A", 1)
	hosts := snap.Hosts()
	qs := []Query{{Kind: Reachability, Src: hosts[0], Dst: hosts[1]}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := New(snap, Options{}).Run(ctx, qs)
	if rs[0].Error == "" {
		t.Fatalf("cancelled batch should error per query: %+v", rs[0])
	}

	rs = New(snap, Options{Timeout: -time.Nanosecond}).Run(context.Background(), qs)
	if rs[0].Error == "" {
		t.Fatalf("expired budget should error per query: %+v", rs[0])
	}

	// A request cancelled between the two 128-query chunks the daemon
	// runs a 256-query batch in: the first chunk answers within its
	// budget, and every query of the second reports the cancellation.
	ctx, cancel = context.WithCancel(context.Background())
	e := New(snap, Options{Timeout: time.Minute})
	batch := mixedBatch(snap, 256, 5, false)
	first := e.Run(ctx, batch[:128])
	cancel()
	second := e.Run(ctx, batch[128:])
	for i, r := range first {
		if r.Error != "" {
			t.Fatalf("query %d before the cancellation errored: %+v", i, r)
		}
	}
	for i, r := range second {
		if r.Error != "query aborted: context canceled" {
			t.Fatalf("query %d after the cancellation: %+v, want it aborted", 128+i, r)
		}
	}
}

// TestThousandPredicateBatchFatTree08 is the acceptance criterion: a
// 1,000-predicate mixed batch on FatTree08 answered from a warmed
// snapshot must cost less than one full data-plane extraction, and its
// what-if queries must re-trace only dirty destinations.
func TestThousandPredicateBatchFatTree08(t *testing.T) {
	if testing.Short() {
		t.Skip("FatTree08 batch in -short mode")
	}
	// Fresh snapshot: time a full extraction (graph build and path walks
	// for all 64 destinations, sharded by destination across the workers).
	cold := mustSnap(t, "H", 0)
	start := time.Now()
	traceAll(cold)
	extraction := time.Since(start)

	// The same snapshot is now warm: a mixed 1k batch must be cheaper
	// than the extraction that warmed it.
	e := New(cold, Options{Baseline: cold})
	qs := mixedBatch(cold, 1000, 2026, true)
	start = time.Now()
	rs := e.Run(context.Background(), qs)
	batch := time.Since(start)

	for i, r := range rs {
		if r.Error != "" {
			t.Fatalf("query %d errored: %s", i, r.Error)
		}
	}
	if batch >= extraction {
		t.Fatalf("1k-predicate batch took %v, want under one extraction (%v)", batch, extraction)
	}

	// What-if accounting: the batch contains ~200 what-if predicates; the
	// engine must have reused cached results for sources that provably
	// cannot reach the failure instead of re-tracing everything.
	st := e.Stats()
	whatifs := 0
	for _, q := range qs {
		if q.Kind == WhatIf {
			whatifs++
		}
	}
	if st.Queries != int64(len(qs)) {
		t.Fatalf("stats queries = %d, want %d", st.Queries, len(qs))
	}
	if st.WhatIfRetraced+st.WhatIfReused == 0 || st.WhatIfRetraced+st.WhatIfReused > int64(whatifs) {
		t.Fatalf("what-if counters %d/%d inconsistent with %d what-if queries",
			st.WhatIfRetraced, st.WhatIfReused, whatifs)
	}
	if st.WhatIfReused == 0 {
		t.Fatal("expected some what-if queries to reuse cached results (clean destinations)")
	}
	if st.WhatIfRetraced == 0 {
		t.Fatal("expected some what-if queries to re-trace (dirty destinations)")
	}
	t.Logf("extraction=%v batch=%v whatif retraced=%d reused=%d",
		extraction, batch, st.WhatIfRetraced, st.WhatIfReused)
}

// TestFromConfigs round-trips a rendered catalog network through the
// parse+simulate helper the daemon uses.
func TestFromConfigs(t *testing.T) {
	spec, err := netgen.ByID("A")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := FromConfigs(cfg.Render(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hosts := snap.Hosts()
	if len(hosts) < 2 {
		t.Fatalf("expected hosts, got %v", hosts)
	}
	e := New(snap, Options{})
	rs := e.Run(context.Background(), []Query{{Kind: Reachability, Src: hosts[0], Dst: hosts[1]}})
	if rs[0].Error != "" {
		t.Fatalf("reachability on parsed net errored: %s", rs[0].Error)
	}

	if _, err := FromConfigs(nil, 1); err == nil {
		t.Fatal("empty config set should error")
	}
}

// BenchmarkQueryBatch measures a warmed 256-predicate mixed batch on
// FatTree04 — the per-query cost of the cache-lookup path.
func BenchmarkQueryBatch(b *testing.B) {
	spec, err := netgen.ByID("G")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := sim.SimulateOpts(cfg, sim.Options{Parallelism: 0})
	if err != nil {
		b.Fatal(err)
	}
	traceAll(snap)
	e := New(snap, Options{Baseline: snap})
	qs := mixedBatch(snap, 256, 9, true)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(ctx, qs)
	}
}
