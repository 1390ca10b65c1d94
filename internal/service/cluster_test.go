package service

// Multi-node (worker fleet) behavior: two Servers sharing one journal
// directory, lease-fenced job ownership, coordinator takeover of dead
// owners, tenant fairness, and submit rate limiting. Takeover is driven
// deterministically through the cluster.lease.expire fault point and the
// exported Rescan hook — no test below waits out a lease TTL.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"confmask/internal/faults"
)

// postJobTenant submits a job under an explicit X-Tenant header.
func postJobTenant(t *testing.T, ts *httptest.Server, req *Request, tenant string) (*http.Response, Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

// countJournal replays a job directory and tallies its event log.
func countJournal(t *testing.T, jl *journal, id string) (rj *replayedJob, starts, dones int) {
	t.Helper()
	rj = jl.replayOne(id)
	if rj == nil || rj.req == nil {
		t.Fatalf("job %s journal did not replay: %+v", id, rj)
	}
	for _, e := range rj.events {
		if e.Message == "started" {
			starts++
		}
		if e.Message == "done" {
			dones++
		}
	}
	return rj, starts, dones
}

// TestClusterExpiredLeaseTakeover is the killed-owner path: node A freezes
// mid-equivalence holding a live lease (the on-disk state a SIGKILL leaves,
// minus the actual kill), node B's coordinator is told the lease is expired
// via the cluster.lease.expire fault point, requeues the job, claims epoch
// 2, and finishes it byte-identical to an uninterrupted run — resuming from
// the checkpoint A persisted, not from scratch.
func TestClusterExpiredLeaseTakeover(t *testing.T) {
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	entered := make(chan struct{})
	freeze := make(chan struct{}) // never closed: A stays frozen, abandoned
	var once sync.Once
	s1, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-a", RescanInterval: time.Hour,
		StageHook: func(id, stage string, iter int) {
			if stage == "equivalence" {
				once.Do(func() { close(entered) })
				<-freeze
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()

	req := testRequest(t, 201)
	_, st := postJob(t, ts1, req)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached equivalence on node A")
	}

	// Node B joins the fleet while A's lease is still live: replay must
	// leave the leased job alone.
	s2, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-b", RescanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	if got := getStatus(t, ts2, st.ID); got.State == StateDone || got.State == StateFailed {
		t.Fatalf("leased foreign job replayed terminal on B: %+v", got)
	}

	// Declare A dead: the fault point makes B's Claimable treat A's live
	// lease as expired, deterministically, without waiting out a TTL.
	faults.Arm("cluster.lease.expire", faults.Injection{Mode: faults.ModeError, Message: "lease declared expired"})
	s2.Rescan()

	final := waitState(t, ts2, st.ID, StateDone)
	if final.Restarts != 1 {
		t.Fatalf("taken-over job restarts = %d, want 1", final.Restarts)
	}
	if final.Owner != "node-b" || final.LeaseEpoch != 2 {
		t.Fatalf("taken-over job owner/epoch = %s/%d, want node-b/2", final.Owner, final.LeaseEpoch)
	}
	if final.Tenant != DefaultTenant {
		t.Fatalf("tenant = %q, want %q", final.Tenant, DefaultTenant)
	}
	assertIdentical(t, ts2, st.ID, directRun(t, req), "job taken over after owner death")

	m := metricsSnapshot(t, ts2)
	if got := metricInt(t, m, "leases_expired_total"); got != 1 {
		t.Fatalf("leases_expired_total = %d, want 1", got)
	}
	if got := metricInt(t, m, "jobs_requeued_total"); got != 1 {
		t.Fatalf("jobs_requeued_total = %d, want 1", got)
	}

	// The journal's newest claim is B's epoch-2 record, and the takeover
	// resumed rather than restarted: exactly two starts, one done.
	rj, starts, dones := countJournal(t, s2.journal, st.ID)
	if rj.owner != "node-b" || rj.leaseEpoch != 2 {
		t.Fatalf("journal owner/epoch = %s/%d, want node-b/2", rj.owner, rj.leaseEpoch)
	}
	if starts != 2 || dones != 1 {
		t.Fatalf("journal has %d starts / %d dones, want 2/1", starts, dones)
	}
}

// TestClusterFencedStaleOwnerCannotCorrupt is the split-brain path: node A
// is alive but frozen (a GC pause, a hung NFS write) while node B takes its
// job over. When A wakes it must discover it is fenced — its run fails with
// a structured "lease lost" reason, its journal writes are refused and
// counted, and the replayed journal shows only B's authoritative history.
func TestClusterFencedStaleOwnerCannotCorrupt(t *testing.T) {
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	entered := make(chan struct{})
	freeze := make(chan struct{})
	var once sync.Once
	s1, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-a", RescanInterval: time.Hour,
		// A fast heartbeat so the frozen owner notices the fence promptly
		// once it wakes; the test's ordering never depends on it firing.
		Heartbeat: 50 * time.Millisecond,
		StageHook: func(id, stage string, iter int) {
			if stage == "equivalence" {
				once.Do(func() { close(entered) })
				<-freeze
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Shutdown(context.Background())
	// Deferred after Shutdown so it runs first: a failure anywhere below
	// releases the frozen worker, and the test fails instead of hanging
	// until the test binary's timeout.
	var unfreezeOnce sync.Once
	unfreeze := func() { unfreezeOnce.Do(func() { close(freeze) }) }
	defer unfreeze()
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()

	req := testRequest(t, 211)
	_, st := postJob(t, ts1, req)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached equivalence on node A")
	}

	s2, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-b", RescanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	faults.Arm("cluster.lease.expire", faults.Injection{Mode: faults.ModeError, Message: "lease declared expired"})
	s2.Rescan()
	waitState(t, ts2, st.ID, StateDone)
	faults.Reset()
	want := fetchResult(t, ts2, st.ID)

	// Wake the stale owner. Every durable write it attempts from here is
	// refused — its run must unwind as fenced, not overwrite B's result.
	unfreeze()
	deadline := time.Now().Add(30 * time.Second)
	var stale Status
	for {
		stale = getStatus(t, ts1, st.ID)
		if stale.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale owner's run never terminated: %+v", stale)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stale.State != StateFailed {
		t.Fatalf("stale owner's run ended %s, want failed", stale.State)
	}
	if !bytes.Contains([]byte(stale.Error), []byte("lease lost")) {
		t.Fatalf("stale owner's failure reason: %q, want a lease-lost reason", stale.Error)
	}
	m1 := metricsSnapshot(t, ts1)
	if got := metricInt(t, m1, "fencing_rejects_total"); got < 1 {
		t.Fatalf("fencing_rejects_total on stale owner = %d, want >= 1", got)
	}

	// The journal is B's history: epoch 2, one done, no failed event from
	// A's voided run, and the stored result still byte-identical.
	rj, _, dones := countJournal(t, s2.journal, st.ID)
	if rj.owner != "node-b" || rj.leaseEpoch != 2 {
		t.Fatalf("journal owner/epoch = %s/%d, want node-b/2", rj.owner, rj.leaseEpoch)
	}
	if rj.state != StateDone || dones != 1 {
		t.Fatalf("journal state %s with %d dones, want done/1 — stale owner corrupted the journal", rj.state, dones)
	}
	for _, e := range rj.events {
		if e.State == StateFailed {
			t.Fatalf("stale owner's failed event survived replay: %+v", e)
		}
	}
	got := fetchResult(t, ts2, st.ID)
	for name, text := range want {
		if got[name] != text {
			t.Fatalf("config %s changed after stale owner woke", name)
		}
	}
}

// TestClusterDrainDuringClaim races a graceful Shutdown on node A against
// node B's coordinator claiming A's jobs: the drain releases the lease and
// journals a requeue while B rescans continuously. The job must run exactly
// once more (no loss, no double-run) and finish byte-identical. Run under
// -race in CI.
func TestClusterDrainDuringClaim(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-a", RescanInterval: time.Hour,
		StageHook: func(id, stage string, iter int) {
			if stage == "equivalence" {
				once.Do(func() { close(entered) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()
	s2, err := Open(Config{
		Workers: 2, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
		NodeID: "node-b", RescanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	req := testRequest(t, 221)
	_, st := postJob(t, ts1, req)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached equivalence on node A")
	}

	// B's coordinator hammers the journal root for the whole drain window:
	// every interleaving of {A holds lease, A writes requeue, A releases}
	// with a rescan must be safe.
	stopScan := make(chan struct{})
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for {
			select {
			case <-stopScan:
				return
			default:
				s2.Rescan()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Drain A with an expired deadline: the running job is stopped and
	// requeued. The pipeline is parked in the StageHook, so release it once
	// the draining event is durable (the same dance as the drain tests).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan struct{})
	go func() { s1.Shutdown(ctx); close(drained) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		events := jobEvents(t, ts1, st.ID)
		if hasEvent(events, func(e Event) bool { return e.State == StateDraining || e.Message == "draining: server shutting down" }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never saw a draining event")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)
	<-drained

	final := waitState(t, ts2, st.ID, StateDone)
	close(stopScan)
	<-scanDone
	if final.Owner != "node-b" || final.LeaseEpoch != 2 {
		t.Fatalf("owner/epoch after drain takeover = %s/%d, want node-b/2", final.Owner, final.LeaseEpoch)
	}
	assertIdentical(t, ts2, st.ID, directRun(t, req), "job drained from A and claimed by B")

	// Exactly once: one start on A, one on B, a single done record.
	_, starts, dones := countJournal(t, s2.journal, st.ID)
	if starts != 2 || dones != 1 {
		t.Fatalf("journal has %d starts / %d dones, want 2/1", starts, dones)
	}
}

// TestClusterTenantFairnessAndRateLimit floods tenant alpha past its token
// bucket and then past the queue, with tenant beta submitting one job:
// alpha's over-rate submit gets 429 + Retry-After, beta's job is admitted
// under its own bucket, and the deficit-round-robin scheduler dispatches
// beta's job before alpha's backlog drains.
func TestClusterTenantFairnessAndRateLimit(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	started := []string{}
	seen := map[string]bool{}
	s := New(Config{
		Workers: 1, QueueDepth: 16, JobTimeout: 2 * time.Minute,
		SchedQuantum: 1, TenantQuota: 1,
		TenantRate: 0.001, TenantBurst: 3,
		StageHook: func(id, stage string, iter int) {
			mu.Lock()
			if !seen[id] {
				seen[id] = true
				started = append(started, id)
			}
			mu.Unlock()
			<-gate // blocks until the gate opens, then never again
		},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// alpha's burst of three is admitted; the first runs (frozen in the
	// hook), two queue behind it.
	var alpha []Status
	for i := 0; i < 3; i++ {
		resp, st := postJobTenant(t, ts, testRequest(t, int64(231+i)), "alpha")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alpha submit %d: %s", i, resp.Status)
		}
		if st.Tenant != "alpha" {
			t.Fatalf("alpha job tenant = %q", st.Tenant)
		}
		alpha = append(alpha, st)
	}
	waitState(t, ts, alpha[0].ID, StateRunning)

	// The fourth alpha submit is over the bucket: 429 with a whole-seconds
	// Retry-After.
	resp4, _ := postJobTenant(t, ts, testRequest(t, 234), "alpha")
	if resp4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %s, want 429", resp4.Status)
	}
	ra := resp4.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", ra)
	}

	// beta has its own bucket and its own queue.
	respB, stB := postJobTenant(t, ts, testRequest(t, 235), "beta")
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit: %s", respB.Status)
	}

	m := metricsSnapshot(t, ts)
	if got := metricInt(t, m, "rate_limited_total"); got != 1 {
		t.Fatalf("rate_limited_total = %d, want 1", got)
	}
	depths, ok := m["tenant_queue_depth"].(map[string]any)
	if !ok || depths["alpha"] != float64(2) || depths["beta"] != float64(1) {
		t.Fatalf("tenant_queue_depth = %v, want alpha:2 beta:1", m["tenant_queue_depth"])
	}

	// Open the gate: everything runs. DRR must interleave beta's one job
	// into alpha's backlog instead of letting the flood finish first.
	close(gate)
	for _, st := range alpha {
		waitState(t, ts, st.ID, StateDone)
	}
	waitState(t, ts, stB.ID, StateDone)

	mu.Lock()
	order := append([]string(nil), started...)
	mu.Unlock()
	pos := func(id string) int {
		for i, v := range order {
			if v == id {
				return i
			}
		}
		return -1
	}
	if pos(stB.ID) < 0 || pos(stB.ID) > pos(alpha[2].ID) {
		t.Fatalf("start order %v: beta's job (%s) ran after alpha's whole backlog", order, stB.ID)
	}
}

// TestClusterListPagination covers the GET /v1/jobs paging contract:
// ?limit= pages newest-first with next_after cursors, ?state= filters, and
// malformed parameters are 400s. The default page cap (200) and maximum
// (1000) are compile-time constants asserted here so a silent change to
// either shows up as a test failure.
func TestClusterListPagination(t *testing.T) {
	if defaultListLimit != 200 || maxListLimit != 1000 {
		t.Fatalf("documented list caps changed: default %d (want 200), max %d (want 1000)", defaultListLimit, maxListLimit)
	}
	gate := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 16, JobTimeout: 2 * time.Minute,
		StageHook: func(id, stage string, iter int) { <-gate },
	})
	defer s.Shutdown(context.Background())
	defer close(gate)
	ts := httptest.NewServer(s)
	defer ts.Close()

	ids := map[string]bool{}
	var first Status
	for i := 0; i < 5; i++ {
		resp, st := postJob(t, ts, testRequest(t, int64(241+i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		ids[st.ID] = true
		if i == 0 {
			first = st
		}
	}
	waitState(t, ts, first.ID, StateRunning) // 1 running, 4 queued

	type page struct {
		Jobs      []Status `json:"jobs"`
		NextAfter string   `json:"next_after"`
	}
	getPage := func(query string) (page, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var p page
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
				t.Fatal(err)
			}
		}
		return p, resp.StatusCode
	}

	// Walk the whole list two at a time: every job exactly once, newest
	// first, with a cursor on every truncated page.
	walked := map[string]bool{}
	cursor := ""
	pages := 0
	for {
		q := "?limit=2"
		if cursor != "" {
			q += "&after=" + cursor
		}
		p, code := getPage(q)
		if code != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, code)
		}
		pages++
		prev := ""
		for _, st := range p.Jobs {
			if walked[st.ID] {
				t.Fatalf("job %s appeared on two pages", st.ID)
			}
			if prev != "" && st.ID >= prev {
				t.Fatalf("page not sorted newest-first: %s then %s", prev, st.ID)
			}
			prev = st.ID
			walked[st.ID] = true
		}
		if p.NextAfter == "" {
			break
		}
		cursor = p.NextAfter
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if len(walked) != len(ids) {
		t.Fatalf("pagination walked %d jobs, want %d", len(walked), len(ids))
	}

	if p, code := getPage("?state=queued"); code != http.StatusOK || len(p.Jobs) != 4 {
		t.Fatalf("state=queued: code %d, %d jobs, want 4", code, len(p.Jobs))
	}
	if p, code := getPage("?state=running"); code != http.StatusOK || len(p.Jobs) != 1 {
		t.Fatalf("state=running: code %d, %d jobs, want 1", code, len(p.Jobs))
	}
	for _, bad := range []string{"?state=bogus", "?limit=0", "?limit=-3", "?limit=abc"} {
		if _, code := getPage(bad); code != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s: code %d, want 400", bad, code)
		}
	}
	// An explicit limit beyond the maximum is clamped, not rejected.
	if _, code := getPage("?limit=99999"); code != http.StatusOK {
		t.Fatalf("over-max limit: code %d, want 200 (clamped)", code)
	}
}

// TestClusterHealthzIdentity pins the healthz/metrics fleet-identity
// fields: node_id and lease counts appear, and every pre-fleet field keeps
// its name and type so existing monitoring keeps parsing.
func TestClusterHealthzIdentity(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 4, DataDir: t.TempDir(), NodeID: "node-x", RescanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["durable"] != true {
		t.Fatalf("healthz pre-fleet fields changed: %v", hz)
	}
	for _, key := range []string{"workers", "queue_capacity", "uptime_seconds"} {
		if _, ok := hz[key].(float64); !ok {
			t.Fatalf("healthz field %q missing or wrong type: %v", key, hz[key])
		}
	}
	if hz["node_id"] != "node-x" {
		t.Fatalf("healthz node_id = %v, want node-x", hz["node_id"])
	}
	if v, ok := hz["leases_held"].(float64); !ok || v != 0 {
		t.Fatalf("healthz leases_held = %v, want 0", hz["leases_held"])
	}

	m := metricsSnapshot(t, ts)
	if m["node_id"] != "node-x" {
		t.Fatalf("metrics node_id = %v, want node-x", m["node_id"])
	}
	for _, key := range []string{"leases_expired_total", "fencing_rejects_total", "rate_limited_total", "leases_held", "jobs_submitted_total", "queue_depth"} {
		if _, ok := m[key].(float64); !ok {
			t.Fatalf("metrics field %q missing: %v", key, m[key])
		}
	}
	if _, ok := m["tenant_queue_depth"].(map[string]any); !ok {
		t.Fatalf("metrics tenant_queue_depth missing: %v", m["tenant_queue_depth"])
	}
}
