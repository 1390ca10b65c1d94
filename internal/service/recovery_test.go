package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"confmask"
	"confmask/internal/faults"
)

// directRun computes the reference output for a request: the uninterrupted
// in-process pipeline with the same configs, options, and seed.
func directRun(t *testing.T, req *Request) map[string]string {
	t.Helper()
	out, _, err := confmask.Anonymize(req.Configs, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fetchResult pulls a done job's configs from the API.
func fetchResult(t *testing.T, ts *httptest.Server, id string) map[string]string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s", id, resp.Status)
	}
	var doc struct {
		Configs map[string]string `json:"configs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Configs
}

// assertIdentical fails unless the job's result is byte-identical to the
// uninterrupted reference run.
func assertIdentical(t *testing.T, ts *httptest.Server, id string, want map[string]string, label string) {
	t.Helper()
	got := fetchResult(t, ts, id)
	if len(got) != len(want) {
		t.Fatalf("%s: %d configs, want %d", label, len(got), len(want))
	}
	for name, text := range want {
		if got[name] != text {
			t.Fatalf("%s: config %s differs from uninterrupted run", label, name)
		}
	}
}

// jobEvents pulls a job's full event replay (no follow).
func jobEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []Event
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func hasEvent(events []Event, pred func(Event) bool) bool {
	for _, e := range events {
		if pred(e) {
			return true
		}
	}
	return false
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func metricInt(t *testing.T, m map[string]any, key string) int64 {
	t.Helper()
	v, ok := m[key].(float64)
	if !ok {
		t.Fatalf("metric %s missing or not a number: %v", key, m[key])
	}
	return int64(v)
}

// TestDrainRequeueResume is the graceful path of crash safety: a drain
// deadline stops a running job with draining → requeued events, the
// journal keeps its last stage checkpoint, and a fresh server on the same
// data dir resumes both the interrupted job and the still-queued one to
// results byte-identical to an uninterrupted run.
func TestDrainRequeueResume(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
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
	ts := httptest.NewServer(s)
	defer ts.Close()

	reqA, reqB := testRequest(t, 31), testRequest(t, 32)
	_, stA := postJob(t, ts, reqA)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never reached equivalence")
	}
	_, stB := postJob(t, ts, reqB)

	// Drain with an already-expired deadline: the running job must be
	// stopped and requeued, not cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() { s.Shutdown(ctx); close(done) }()
	// The shutdown path marks the job draining, then cancels its pipeline;
	// the pipeline is parked in the StageHook, so release it once the
	// draining event is on the books.
	deadline := time.Now().Add(10 * time.Second)
	for {
		events := jobEvents(t, ts, stA.ID)
		if hasEvent(events, func(e Event) bool { return strings.Contains(e.Message, "draining") }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never saw a draining event")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	<-done

	if st := getStatus(t, ts, stA.ID); st.State != StateRequeued {
		t.Fatalf("running job drained to %s, want requeued", st.State)
	}
	if st := getStatus(t, ts, stB.ID); st.State != StateRequeued {
		t.Fatalf("queued job drained to %s, want requeued", st.State)
	}
	eventsA := jobEvents(t, ts, stA.ID)
	if !hasEvent(eventsA, func(e Event) bool { return strings.Contains(e.Message, "draining") }) ||
		!hasEvent(eventsA, func(e Event) bool { return strings.Contains(e.Message, "requeued") }) {
		t.Fatalf("job A events missing draining/requeued pair: %+v", eventsA)
	}
	// The interrupted job got past topology, so its checkpoint must be on
	// disk for the next start to resume from.
	if _, err := os.Stat(filepath.Join(dir, "jobs", stA.ID, "checkpoint.json")); err != nil {
		t.Fatalf("no checkpoint persisted for drained job: %v", err)
	}
	ts.Close()

	// Restart against the same data dir: both jobs replay and complete.
	s2, err := Open(Config{Workers: 2, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	finalA := waitState(t, ts2, stA.ID, StateDone)
	finalB := waitState(t, ts2, stB.ID, StateDone)
	if finalA.Restarts != 1 {
		t.Fatalf("job A restarts = %d, want 1", finalA.Restarts)
	}
	if finalB.Restarts != 0 {
		t.Fatalf("job B restarts = %d, want 0 (it never started)", finalB.Restarts)
	}
	assertIdentical(t, ts2, stA.ID, directRun(t, reqA), "drained+resumed job")
	assertIdentical(t, ts2, stB.ID, directRun(t, reqB), "requeued queued job")
	m := metricsSnapshot(t, ts2)
	if got := metricInt(t, m, "jobs_recovered_total"); got != 2 {
		t.Fatalf("jobs_recovered_total = %d, want 2", got)
	}
	// The resumed job must announce it is continuing from a checkpoint.
	eventsA2 := jobEvents(t, ts2, stA.ID)
	if !hasEvent(eventsA2, func(e Event) bool { return strings.Contains(e.Message, "resuming after") }) {
		t.Fatal("resumed job has no resuming-from-checkpoint event")
	}
}

// TestReplayFromAbandonedServer simulates a daemon crash without the
// courtesy of a drain: server A is frozen mid-equivalence (its journal
// shows a running job and a queued one, like a SIGKILL would leave) and
// simply abandoned; server B opens the same data dir and must finish both
// jobs byte-identically. The strawman2 strategy is used for job A so the
// resumed run exercises strawman 2's delta re-simulations against
// re-derived (not journaled) filter state.
func TestReplayFromAbandonedServer(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{})
	// Never released: server A stays frozen for the life of the test
	// binary, like a crashed process that simply stopped. Releasing it at
	// cleanup would let its pipeline run concurrently with later tests
	// (and consume their one-shot fault injections).
	release := make(chan struct{})
	var once sync.Once
	s, err := Open(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir,
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
	ts := httptest.NewServer(s)
	defer ts.Close()

	reqA, reqB := testRequest(t, 41), testRequest(t, 42)
	reqA.Options.Strategy = "strawman2"
	reqA.Options.NoiseP = 0.5
	_, stA := postJob(t, ts, reqA)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never reached equivalence")
	}
	_, stB := postJob(t, ts, reqB)
	// No shutdown: server A stays frozen holding its journal, exactly the
	// on-disk state a kill -9 leaves behind.

	s2, err := Open(Config{Workers: 2, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	finalA := waitState(t, ts2, stA.ID, StateDone)
	if finalA.Restarts != 1 {
		t.Fatalf("crashed job restarts = %d, want 1", finalA.Restarts)
	}
	waitState(t, ts2, stB.ID, StateDone)
	assertIdentical(t, ts2, stA.ID, directRun(t, reqA), "job interrupted mid-equivalence")
	assertIdentical(t, ts2, stB.ID, directRun(t, reqB), "job queued at crash")
}

// TestPanicIsolation injects a panic into one job's pipeline and asserts
// the blast radius is exactly that job: it fails with the captured stack,
// the daemon keeps serving, /metrics counts the panic, and the next job
// completes normally.
func TestPanicIsolation(t *testing.T) {
	t.Cleanup(faults.Reset)
	faults.Arm("anonymize.stage.equivalence", faults.Injection{Mode: faults.ModePanic, Message: "injected chaos", On: 1})
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, stA := postJob(t, ts, testRequest(t, 51))
	deadline := time.Now().Add(30 * time.Second)
	var finalA Status
	for {
		finalA = getStatus(t, ts, stA.ID)
		if finalA.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("panicked job never terminated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if finalA.State != StateFailed {
		t.Fatalf("panicked job ended %s, want failed", finalA.State)
	}
	if !strings.Contains(finalA.Error, "panic:") || !strings.Contains(finalA.Error, "injected chaos") {
		t.Fatalf("panic reason not captured: %q", finalA.Error)
	}
	if !strings.Contains(finalA.Error, "goroutine") {
		t.Fatalf("stack trace not captured: %q", finalA.Error)
	}

	// Daemon must still be healthy and able to run the next job.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %s", resp.Status)
	}
	_, stB := postJob(t, ts, testRequest(t, 52))
	waitState(t, ts, stB.ID, StateDone)
	m := metricsSnapshot(t, ts)
	if got := metricInt(t, m, "jobs_panicked_total"); got != 1 {
		t.Fatalf("jobs_panicked_total = %d, want 1", got)
	}
	if got := metricInt(t, m, "jobs_done_total"); got != 1 {
		t.Fatalf("jobs_done_total = %d, want 1", got)
	}
}

// TestJournalCreateFailureRejectsSubmit arms a persistent error at the
// journal-create fault point: a submission that cannot be made durable
// must be refused (500), and once the fault clears the same submission
// goes through.
func TestJournalCreateFailureRejectsSubmit(t *testing.T) {
	t.Cleanup(faults.Reset)
	s, err := Open(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	faults.Arm("service.journal.create", faults.Injection{Mode: faults.ModeError, Message: "disk on fire"})
	resp, _ := postJob(t, ts, testRequest(t, 61))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unjournalable submit: %s, want 500", resp.Status)
	}
	m := metricsSnapshot(t, ts)
	if got := metricInt(t, m, "journal_errors_total"); got == 0 {
		t.Fatal("journal_errors_total not incremented")
	}

	faults.Reset()
	resp2, st := postJob(t, ts, testRequest(t, 61))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after fault cleared: %s", resp2.Status)
	}
	waitState(t, ts, st.ID, StateDone)
}

// TestWatchdogFailsSilentStage arms a delay far past the stage watchdog
// budget: the watchdog must cancel the job with a structured reason naming
// the stage, not leave it running or report a bare "cancelled".
func TestWatchdogFailsSilentStage(t *testing.T) {
	t.Cleanup(faults.Reset)
	faults.Arm("anonymize.stage.equivalence", faults.Injection{Mode: faults.ModeDelay, Delay: 3 * time.Second, On: 1})
	s := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute, StageTimeout: 200 * time.Millisecond})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJob(t, ts, testRequest(t, 71))
	deadline := time.Now().Add(30 * time.Second)
	var final Status
	for {
		final = getStatus(t, ts, st.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdogged job never terminated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != StateFailed {
		t.Fatalf("stalled job ended %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "watchdog") {
		t.Fatalf("failure reason not structured: %q", final.Error)
	}
}

// TestMaxRestartsGivesUp hand-crafts a journal whose job already ran in
// three prior daemon starts; replay must fail it with a structured reason
// instead of crash-looping a poison job forever.
func TestMaxRestartsGivesUp(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(t, 81)
	id := "j000007-" + req.hash()[:8]
	jobDir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	recs := []journalRecord{
		{Type: "submitted", Time: now, ID: id, Hash: req.hash(), Request: req},
		{Type: "event", Time: now, Event: &Event{Seq: 1, State: StateQueued, Message: "queued"}},
		{Type: "event", Time: now, Event: &Event{Seq: 2, State: StateRunning, Message: "started"}},
		{Type: "event", Time: now, Event: &Event{Seq: 3, State: StateRunning, Message: "started"}},
		{Type: "event", Time: now, Event: &Event{Seq: 4, State: StateRunning, Message: "started"}},
	}
	var buf []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(filepath.Join(jobDir, "journal.ndjson"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{Workers: 1, MaxRestarts: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	st := getStatus(t, ts, id)
	if st.State != StateFailed {
		t.Fatalf("poison job replayed to %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "giving up") {
		t.Fatalf("poison job reason: %q", st.Error)
	}
}

// TestTruncatedJournalTailTolerated appends a torn half-record — what a
// crash mid-append leaves — and asserts replay drops the torn line but
// keeps the job, which then runs to completion.
func TestTruncatedJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(t, 91)
	id := "j000003-" + req.hash()[:8]
	jobDir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	recs := []journalRecord{
		{Type: "submitted", Time: now, ID: id, Hash: req.hash(), Request: req},
		{Type: "event", Time: now, Event: &Event{Seq: 1, State: StateQueued, Message: "queued"}},
	}
	var buf []byte
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	buf = append(buf, []byte(`{"type":"event","time":"2026-0`)...) // torn mid-append
	if err := os.WriteFile(filepath.Join(jobDir, "journal.ndjson"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitState(t, ts, id, StateDone)
	assertIdentical(t, ts, id, directRun(t, req), "job with torn journal tail")
}

// TestRetryAfterOn429 asserts the queue-full rejection carries the
// Retry-After header the client backoff honors.
func TestRetryAfterOn429(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 1, JobTimeout: 2 * time.Minute,
		StageHook: func(id, stage string, iter int) { <-release },
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, stA := postJob(t, ts, testRequest(t, 95))
	waitState(t, ts, stA.ID, StateRunning)
	postJob(t, ts, testRequest(t, 96)) // fills the queue

	body, _ := json.Marshal(testRequest(t, 97))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	close(release)
	waitState(t, ts, stA.ID, StateDone)
}

// TestCancelMidAlgorithm2 cancels a job while Algorithm 2 (route
// anonymity) is running; the repair loop's per-round context check must
// observe it and the job must end cancelled with no result.
func TestCancelMidAlgorithm2(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := New(Config{
		Workers: 1, QueueDepth: 4, JobTimeout: 2 * time.Minute,
		StageHook: func(id, stage string, iter int) {
			if stage == "anonymity" {
				once.Do(func() { close(entered) })
				<-release
			}
		},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := testRequest(t, 99)
	req.Options.KH = 3
	req.Options.NoiseP = 0.5
	_, st := postJob(t, ts, req)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached Algorithm 2")
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", delResp.Status)
	}
	close(release)
	final := waitState(t, ts, st.ID, StateCancelled)
	if final.Report != nil {
		t.Fatal("cancelled job has a report")
	}
	r, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %s, want 409", r.Status)
	}
}
