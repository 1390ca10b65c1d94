package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"confmask"
	"confmask/internal/cluster"
	"confmask/internal/faults"
)

// Config sizes a Server. The zero value is usable: every field has a
// default.
type Config struct {
	// Workers is the number of concurrent anonymization jobs. Default 2.
	Workers int
	// QueueDepth bounds the FIFO backlog of accepted-but-not-running
	// jobs; a full queue rejects submissions with 429. Default 64.
	QueueDepth int
	// JobTimeout is the per-job wall-clock budget; jobs past it fail
	// with a timeout error. Default 15 minutes.
	JobTimeout time.Duration
	// Parallelism is the default per-job simulation parallelism, applied
	// when a job request leaves Options.Parallelism at 0. Zero keeps the
	// engine default (GOMAXPROCS). Results are identical at any setting.
	Parallelism int
	// StageHook, when non-nil, observes every job progress callback
	// synchronously on the job's worker goroutine. Test instrumentation:
	// a blocking hook holds the pipeline inside a stage, which is how
	// the tests freeze a job mid-Algorithm-1 deterministically.
	StageHook func(jobID, stage string, iteration int)
	// DataDir, when non-empty, makes the service durable: submissions and
	// job events are journaled under DataDir/jobs, stage checkpoints are
	// persisted, and a daemon restarted against the same directory replays
	// its jobs — finished ones become queryable again, unfinished ones
	// re-enqueue and resume from their last checkpoint. Empty keeps the
	// original in-memory behavior.
	DataDir string
	// StageTimeout is the watchdog budget for a single pipeline stage to
	// show progress; a stage silent for longer fails the job with a
	// structured reason. Default 10 minutes; ≤ 0 keeps the default, so
	// the watchdog is always on (JobTimeout still caps the whole job).
	StageTimeout time.Duration
	// MaxStageIterations caps Algorithm 1 / repair iterations within one
	// stage before the watchdog declares the job divergent. Default 10000.
	MaxStageIterations int
	// MaxRestarts caps how many daemon starts may execute one job before
	// replay gives up and fails it — the defense against poison jobs that
	// crash the daemon deterministically. Default 3.
	MaxRestarts int
	// MaxQueryBatch caps the number of predicates one POST
	// /v1/jobs/{id}/query may carry; larger batches are rejected with
	// 400. Default 4096.
	MaxQueryBatch int
	// QueryTimeout is the per-predicate evaluation budget inside a query
	// batch; a predicate past it answers with a per-query error instead
	// of an answer. Default 10 seconds.
	QueryTimeout time.Duration

	// NodeID identifies this server in a worker fleet sharing one DataDir.
	// It defaults to the hostname — stable across restarts, so a restarted
	// daemon reclaims its own leases immediately. Run more than one daemon
	// per host against the same DataDir only with distinct explicit IDs.
	NodeID string
	// LeaseTTL is how long a job lease lives without a heartbeat renewal;
	// a node silent past it loses its jobs to the fleet. Default 15s.
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal period. Default LeaseTTL/3.
	Heartbeat time.Duration
	// RescanInterval is how often the coordinator loop rescans the journal
	// root for jobs abandoned by other nodes (expired or released leases)
	// and for jobs submitted to peers. Default = Heartbeat. Tests set it
	// huge and drive Rescan directly.
	RescanInterval time.Duration
	// TenantQuota caps concurrently running jobs per tenant on this node;
	// excess jobs wait in their tenant queue. 0 = unlimited.
	TenantQuota int
	// TenantRate is the per-tenant submit rate limit in jobs/second; a
	// tenant over it gets 429 + Retry-After. 0 = unlimited.
	TenantRate float64
	// TenantBurst is the rate limiter's bucket size. Default
	// max(1, ceil(TenantRate)).
	TenantBurst float64
	// SchedQuantum is the deficit-round-robin quantum in device units: the
	// share each tenant earns per scheduler visit. Default 64.
	SchedQuantum int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 15 * time.Minute
	}
	if c.StageTimeout <= 0 {
		c.StageTimeout = 10 * time.Minute
	}
	if c.MaxStageIterations <= 0 {
		c.MaxStageIterations = 10000
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.MaxQueryBatch <= 0 {
		c.MaxQueryBatch = 4096
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.NodeID == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			c.NodeID = host
		} else {
			c.NodeID = "node"
		}
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.RescanInterval <= 0 {
		c.RescanInterval = c.Heartbeat
	}
	if c.TenantBurst < 1 {
		c.TenantBurst = math.Ceil(c.TenantRate)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.SchedQuantum <= 0 {
		c.SchedQuantum = 64
	}
	return c
}

// Server is the anonymization service: an http.Handler plus the worker
// pool behind it. Create with New, serve with net/http, stop with
// Shutdown.
type Server struct {
	cfg     Config
	store   *store
	metrics *metrics
	journal *journal             // nil without a DataDir
	leases  *cluster.Manager     // nil without a DataDir
	limiter *cluster.RateLimiter // nil when TenantRate is 0
	sched   *cluster.Scheduler[*job]
	quit    chan struct{}
	workers sync.WaitGroup
	coord   sync.WaitGroup
	mux     *http.ServeMux
	started time.Time

	mu           sync.Mutex
	shuttingDown bool
	running      map[string]*job // jobs currently on a worker

	// queryMu guards queryCache: one lazily built query engine per done
	// job (see query.go in this package).
	queryMu    sync.Mutex
	queryCache map[string]*queryEntry
}

// New builds a Server and starts its worker pool. It panics when the
// journal in cfg.DataDir cannot be opened; daemons that want to handle
// that error use Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, replays the journal when cfg.DataDir is set, and
// starts the worker pool. Jobs found queued, running, draining, or
// requeued in the journal re-enter the queue (resuming from their last
// stage checkpoint); jobs already run by cfg.MaxRestarts prior daemons
// fail instead of crash-looping.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   newStore(),
		metrics: newMetrics(),
		quit:    make(chan struct{}),
		mux:     http.NewServeMux(),
		started: time.Now(),
		running: make(map[string]*job),
	}
	s.sched = cluster.NewScheduler[*job](cluster.SchedOptions{
		Capacity: cfg.QueueDepth,
		Quantum:  cfg.SchedQuantum,
		Quota:    cfg.TenantQuota,
	})
	if cfg.TenantRate > 0 {
		s.limiter = cluster.NewRateLimiter(cfg.TenantRate, cfg.TenantBurst)
	}
	if cfg.DataDir != "" {
		jl, err := openJournal(cfg.DataDir, defaultRetryPolicy())
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.leases = cluster.NewManager(cfg.NodeID, cfg.LeaseTTL)
		backlog, err := s.replayJournal()
		if err != nil {
			return nil, err
		}
		// Replayed jobs exist durably already: they bypass the capacity
		// bound, which only sheds load from fresh submissions.
		for _, j := range backlog {
			s.enqueue(j, true)
		}
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	if s.journal != nil {
		s.coord.Add(1)
		go s.coordinator()
	}
	return s, nil
}

// NodeID returns the server's resolved worker-fleet identity.
func (s *Server) NodeID() string { return s.cfg.NodeID }

// enqueue puts a job on the scheduler. force bypasses the capacity bound
// (replay and coordinator requeues — jobs that already exist durably must
// never be shed). It reports whether the job was queued.
func (s *Server) enqueue(j *job, force bool) bool {
	j.setInQueue(true)
	var ok bool
	if force {
		ok = s.sched.PushForce(j.tenant, j, j.devices)
	} else {
		ok = s.sched.Push(j.tenant, j, j.devices)
	}
	if ok {
		s.metrics.QueueDepth.Add(1)
	} else {
		j.setInQueue(false)
	}
	return ok
}

// replayJournal rebuilds the store from the journal and returns the jobs
// that must run (again). Terminal jobs become queryable records; corrupt
// journals surface as failed jobs rather than vanishing.
func (s *Server) replayJournal() ([]*job, error) {
	replayed, err := s.journal.replay()
	if err != nil {
		return nil, err
	}
	var backlog []*job
	for _, rj := range replayed {
		j := newJobFromReplay(rj)
		switch {
		case rj.corrupt && rj.req == nil:
			// Not even the submission survived; keep a queryable tombstone.
			j.state = StateFailed
			s.store.put(j, false)
			s.metrics.JournalErrors.Add(1)
		case rj.state == StateDone, rj.state == StateFailed, rj.state == StateCancelled:
			s.store.put(j, rj.state == StateDone)
			if rj.corrupt {
				s.metrics.JournalErrors.Add(1)
			}
		default: // queued, running, draining, requeued → run again
			if lease, err := s.leases.Read(s.journal.jobDir(j.id)); err == nil && !s.leases.Claimable(lease) {
				// Another node's live lease: the job is running elsewhere.
				// Register it read-only; the coordinator requeues it here
				// only if that lease expires or is released unfinished.
				s.store.put(j, true)
				continue
			}
			jw, err := s.journal.open(j.id)
			if err != nil {
				return nil, err
			}
			j.reattachJournal(jw)
			if j.restarts >= s.cfg.MaxRestarts {
				j.finish(StateFailed, nil, nil, fmt.Sprintf(
					"job ran in %d daemon starts without completing (max %d); giving up",
					j.restarts, s.cfg.MaxRestarts), time.Now(), "", 0, 0)
				s.store.put(j, false)
				s.metrics.JobsFailed.Add(1)
				continue
			}
			j.markRecovered()
			s.store.put(j, true)
			s.metrics.JobsRecovered.Add(1)
			backlog = append(backlog, j)
		}
	}
	return backlog, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: no new submissions are accepted and
// workers finish their running jobs. When ctx fires first, running jobs
// are stopped — with a journal (DataDir set) they are drained and
// requeued (draining → requeued events, resumable from their last
// checkpoint at the next start); without one they are cancelled.
// Still-queued jobs likewise requeue durably or cancel. The journal is
// flushed (every requeue event is an fsync'd state boundary) before
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shuttingDown {
		s.shuttingDown = true
		close(s.quit)
		// Closing the scheduler wakes workers blocked in Next; jobs still
		// queued stay queued and are drained below once workers are gone.
		s.sched.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		s.coord.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: stop the jobs still running and wait for the
		// pipelines to observe the dead context.
		err = ctx.Err()
		s.mu.Lock()
		for _, j := range s.running {
			if s.journal != nil {
				j.noteDraining()
				j.cancelPipeline()
			} else {
				j.requestCancel()
			}
		}
		s.mu.Unlock()
		<-done
	}

	// Workers are gone; whatever is left in the queues never ran.
	for _, j := range s.sched.DrainAll() {
		s.metrics.QueueDepth.Add(-1)
		j.setInQueue(false)
		if s.journal != nil {
			j.noteDraining()
			j.finish(StateRequeued, nil, nil, "", time.Now(), "", 0, 0)
			s.metrics.JobsRequeued.Add(1)
		} else {
			j.requestCancel()
			j.finish(StateCancelled, nil, nil, "server shutting down", time.Now(), "", 0, 0)
			s.store.unindexHash(j)
			s.metrics.JobsCancelled.Add(1)
		}
	}
	s.store.closeJournals()
	return err
}

// worker pulls jobs off the deficit-round-robin scheduler until shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, tenant, ok := s.sched.Next()
		if !ok {
			return // scheduler closed: shutting down
		}
		s.metrics.QueueDepth.Add(-1)
		j.setInQueue(false)
		s.run(j)
		s.sched.Done(tenant)
	}
}

// coordinator periodically rescans the journal root for work this node
// should pick up: jobs submitted through peer nodes, jobs whose owner's
// lease expired or was released unfinished, and jobs another node finished
// (their local records refresh to the terminal state).
func (s *Server) coordinator() {
	defer s.coord.Done()
	t := time.NewTicker(s.cfg.RescanInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.Rescan()
		}
	}
}

// Rescan runs one coordinator pass synchronously. Exported so tests (and
// operators via future endpoints) can drive takeover deterministically
// instead of waiting out the rescan ticker.
func (s *Server) Rescan() {
	if s.journal == nil || s.leases == nil {
		return
	}
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	entries, err := os.ReadDir(s.journal.root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		s.rescanJob(e.Name())
	}
}

// rescanJob reconciles one job directory against this node's store.
func (s *Server) rescanJob(id string) {
	s.mu.Lock()
	_, runningHere := s.running[id]
	down := s.shuttingDown
	s.mu.Unlock()
	if runningHere || down {
		return
	}
	j, known := s.store.get(id)
	if known {
		if j.isTombstone() || j.inQueue() {
			return
		}
		if st := j.status(); st.State.Terminal() && st.State != StateRequeued {
			return
		}
	}
	rj := s.journal.replayOne(id)
	if rj == nil {
		return
	}
	if rj.corrupt && rj.req == nil {
		if !known {
			j = newJobFromReplay(rj)
			j.state = StateFailed
			s.store.put(j, false)
			s.metrics.JournalErrors.Add(1)
		}
		return
	}
	if !known {
		j = newJobFromReplay(rj)
	}
	if rj.state.Terminal() && rj.state != StateRequeued {
		// Another node finished it: adopt the terminal record so status,
		// result, and dedup answer here too.
		if known {
			j.adoptReplay(rj)
		}
		s.store.put(j, rj.state == StateDone)
		return
	}
	// Non-terminal on disk and not running here: claimable means the owner
	// crashed (expired), drained (released), or the job never ran. Requeue
	// on this node; an unexpired foreign lease leaves it alone.
	dir := s.journal.jobDir(id)
	lease, err := s.leases.Read(dir)
	if err != nil {
		return
	}
	if !s.leases.Claimable(lease) {
		if known {
			j.adoptReplay(rj)
		}
		s.store.put(j, true)
		return
	}
	if known {
		j.adoptReplay(rj)
	}
	if j.restarts >= s.cfg.MaxRestarts {
		if !known {
			j.finish(StateFailed, nil, nil, fmt.Sprintf(
				"job ran in %d daemon starts without completing (max %d); giving up",
				j.restarts, s.cfg.MaxRestarts), time.Now(), "", 0, 0)
			s.store.put(j, false)
			s.metrics.JobsFailed.Add(1)
		}
		return
	}
	if expired := lease.Epoch > 0 && !lease.Released; expired {
		s.metrics.LeasesExpired.Add(1)
	}
	if j.journalHandle() == nil {
		jw, err := s.journal.open(id)
		if err != nil {
			return
		}
		j.reattachJournal(jw)
	}
	j.markRecovered()
	s.store.put(j, true)
	s.metrics.JobsRequeued.Add(1)
	s.enqueue(j, true)
}

// panicError wraps a panic recovered at the worker boundary; the captured
// stack rides along so the job's terminal event carries it.
type panicError struct {
	val   string
	stack string
}

func (e *panicError) Error() string { return "panic: " + e.val }

// journalFailure marks a cancellation caused by the job's own journal
// becoming unwritable: durability was promised and can no longer be kept.
type journalFailure struct{ err error }

func (e *journalFailure) Error() string { return "journal failure: " + e.err.Error() }
func (e *journalFailure) Unwrap() error { return e.err }

// fencedError marks a cancellation caused by this node losing the job's
// lease: a newer epoch exists, so another node owns the job now and every
// local write is refused. The job fails locally without touching the
// journal — the new owner's run is the authoritative one.
type fencedError struct{ err error }

func (e *fencedError) Error() string { return "lease lost: " + e.err.Error() }
func (e *fencedError) Unwrap() error { return e.err }

// isFenced reports whether an error chain bottoms out in a fencing
// rejection, wherever it surfaced: heartbeat renewal, a journal append, a
// checkpoint or result write.
func isFenced(err error) bool { return err != nil && errors.Is(err, cluster.ErrFenced) }

// run executes one job: per-job timeout, per-stage watchdog, progress
// plumbed into the event stream and stage histograms, stage checkpoints
// persisted to the journal, panics isolated to the job, and the terminal
// state classified from the pipeline error plus the cancellation cause.
func (s *Server) run(j *job) {
	tctx, cancelTimeout := context.WithTimeout(context.Background(), s.cfg.JobTimeout)
	defer cancelTimeout()
	ctx, cancelCause := context.WithCancelCause(tctx)
	defer cancelCause(nil)
	// Register as running before claiming the lease: the coordinator skips
	// jobs in this map, so the claim window is invisible to rescans.
	s.mu.Lock()
	s.running[j.id] = j
	s.mu.Unlock()
	s.metrics.JobsRunning.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.running, j.id)
		s.mu.Unlock()
		s.metrics.JobsRunning.Add(-1)
	}()

	// In a fleet, ownership comes first: no lease, no execution. A failed
	// claim (another node owns the job, a claim is in flight, or fault
	// injection refused it) leaves the job queued; a later rescan requeues
	// it here if the owner gives it up.
	var lease *cluster.Handle
	if s.leases != nil {
		h, err := s.leases.Acquire(s.journal.jobDir(j.id))
		if err != nil {
			return
		}
		lease = h
		defer lease.Release()
		s.metrics.LeasesHeld.Add(1)
		defer s.metrics.LeasesHeld.Add(-1)
		j.setLease(h.Owner(), h.Epoch())
		// Heartbeat: renew until the job ends. A renewal failure means the
		// lease is lost — cancel the pipeline with the fencing cause.
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(s.cfg.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					if err := lease.Renew(); err != nil {
						cancelCause(&fencedError{err: err})
						return
					}
				}
			}
		}()
	}

	j.mu.Lock()
	jw, resume := j.jw, j.resume
	j.mu.Unlock()
	if lease != nil && jw != nil {
		// From here on the journal carries the fencing token: buffered
		// appends check the lease locally, fsync-boundary appends and the
		// checkpoint/result writes re-verify it on disk. The claim record
		// goes first so replay orders every later event under this epoch.
		jw.setFence(lease, func() { s.metrics.FencingRejects.Add(1) })
		if err := jw.appendClaim(lease.Owner(), lease.Epoch(), lease.Deadline()); err != nil {
			cancelCause(&journalFailure{err: err})
		}
		if lease.Epoch() > 1 {
			// Taking over from a previous owner: its last checkpoint may be
			// newer than the one this node replayed at startup. The re-read
			// is what makes the resumed run byte-identical to the dead
			// owner's continuation.
			if cp, err := readCheckpoint(s.journal.jobDir(j.id)); err == nil && cp != nil {
				j.mu.Lock()
				j.resume, j.lastCP = cp, cp
				j.mu.Unlock()
				resume = cp
			}
		}
	}
	if !j.start(func() { cancelCause(context.Canceled) }, time.Now()) {
		// Cancelled while queued.
		s.store.unindexHash(j)
		s.metrics.JobsCancelled.Add(1)
		return
	}
	// Incremental resubmission: a job that names (or auto-discovers) a
	// completed base and has no checkpoint of its own yet tries to seed
	// from the base's. A crash-replayed incremental job already carries
	// the imported checkpoint (persisted below before the pipeline ran)
	// and resumes from it like any other.
	if j.req.BaseJob != "" && resume == nil {
		s.resolveBase(j)
		j.mu.Lock()
		resume = j.resume
		j.mu.Unlock()
	}

	// Stage watchdog: a pipeline stage that stops emitting progress
	// callbacks for StageTimeout gets the job cancelled with a structured
	// reason. Progress kicks reset the clock.
	kick := make(chan string, 8)
	wdStop := make(chan struct{})
	go func() {
		stage := "startup"
		t := time.NewTimer(s.cfg.StageTimeout)
		defer t.Stop()
		for {
			select {
			case <-wdStop:
				return
			case stage = <-kick:
				if !t.Stop() {
					select {
					case <-t.C:
					default:
					}
				}
				t.Reset(s.cfg.StageTimeout)
			case <-t.C:
				cancelCause(fmt.Errorf("watchdog: stage %q made no progress for %v", stage, s.cfg.StageTimeout))
				return
			}
		}
	}()
	defer close(wdStop)

	timer := &stageTimer{m: s.metrics}
	opts := j.req.Options
	if opts.Parallelism == 0 {
		opts.Parallelism = s.cfg.Parallelism
	}
	opts.Progress = func(stage string, iteration int) {
		now := time.Now()
		closed, d, alloc := timer.transition(stage, now)
		j.setProgress(stage, iteration, closed, d, alloc)
		// Stage-level fault points fire on the pipeline goroutine, inside
		// the worker's recover boundary: a ModePanic here must fail only
		// this job.
		if err := faults.Fire("anonymize.stage." + stage); err != nil {
			cancelCause(fmt.Errorf("fault injection: stage %s: %w", stage, err))
		}
		if err := j.journalErr(); err != nil {
			cancelCause(&journalFailure{err: err})
		}
		if iteration > s.cfg.MaxStageIterations {
			cancelCause(fmt.Errorf("watchdog: stage %q exceeded %d iterations", stage, s.cfg.MaxStageIterations))
		}
		select {
		case kick <- stage:
		default:
		}
		if s.cfg.StageHook != nil {
			s.cfg.StageHook(j.id, stage, iteration)
		}
	}
	opts.Resume = resume
	opts.Checkpoint = func(cp *confmask.Checkpoint) {
		// Tee every checkpoint into the job record — completed jobs keep
		// their final checkpoint so later submissions can seed from it,
		// journaled or not.
		j.setLastCheckpoint(cp)
		if jw != nil {
			if err := jw.writeCheckpoint(cp); err != nil {
				cancelCause(&journalFailure{err: err})
			}
		}
	}
	result, report, err := s.execute(ctx, j.req.Configs, opts)
	now := time.Now()
	closed, d, alloc := timer.finish(now)
	if err == nil {
		if jerr := j.journalErr(); jerr != nil {
			err = &journalFailure{err: jerr}
		} else if jw != nil {
			if werr := jw.writeResult(result, report); werr != nil {
				err = &journalFailure{err: werr}
			}
		}
	}
	cause := context.Cause(ctx)
	var pe *panicError
	var jf *journalFailure
	switch {
	case err == nil:
		// The final checkpoint is deliberately kept, in memory and on
		// disk: it is what incremental resubmissions seed from.
		j.finish(StateDone, result, report, "", now, closed, d, alloc)
		s.metrics.JobsDone.Add(1)
	case isFenced(err) || isFenced(cause):
		// This node lost the lease mid-run: a newer epoch owns the job.
		// The local record fails for visibility, but the journal is left
		// alone — the fence already refused this node's writes, and the
		// new owner's run is the authoritative history.
		j.finish(StateFailed, nil, nil,
			"lease lost: job taken over by a newer claim; this node's run is void", now, closed, d, alloc)
		s.store.unindexHash(j)
		s.metrics.JobsFailed.Add(1)
	case errors.As(err, &pe):
		s.metrics.JobsPanicked.Add(1)
		j.finish(StateFailed, nil, nil, pe.Error()+"\n"+pe.stack, now, closed, d, alloc)
		s.store.unindexHash(j)
		s.metrics.JobsFailed.Add(1)
	case errors.As(err, &jf):
		s.metrics.JournalErrors.Add(1)
		j.finish(StateFailed, nil, nil, jf.Error(), now, closed, d, alloc)
		s.store.unindexHash(j)
		s.metrics.JobsFailed.Add(1)
	case errors.Is(err, context.Canceled):
		switch {
		case s.journal != nil && j.isDraining():
			j.finish(StateRequeued, nil, nil, "", now, closed, d, alloc)
			s.metrics.JobsRequeued.Add(1)
		case cause != nil && !errors.Is(cause, context.Canceled):
			// Watchdog, journal, or injected fault: the cause carries the
			// structured reason.
			if errors.As(cause, &jf) {
				s.metrics.JournalErrors.Add(1)
			}
			j.finish(StateFailed, nil, nil, cause.Error(), now, closed, d, alloc)
			s.store.unindexHash(j)
			s.metrics.JobsFailed.Add(1)
		default:
			j.finish(StateCancelled, nil, nil, "cancelled", now, closed, d, alloc)
			s.store.unindexHash(j)
			s.metrics.JobsCancelled.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StateFailed, nil, nil, fmt.Sprintf("job exceeded timeout %v", s.cfg.JobTimeout), now, closed, d, alloc)
		s.store.unindexHash(j)
		s.metrics.JobsFailed.Add(1)
	default:
		j.finish(StateFailed, nil, nil, err.Error(), now, closed, d, alloc)
		s.store.unindexHash(j)
		s.metrics.JobsFailed.Add(1)
	}
}

// resolveBase resolves a job's BaseJob request into an imported checkpoint
// on j.resume. On success it journals the imported checkpoint before the
// pipeline starts (so a SIGKILL mid-run replays into the same incremental
// resume), emits the seed event carrying base_job/reused_stages, and bumps
// the incremental metrics. Any gate failure falls back to a full run with
// an event naming the reason — incremental is an optimization, never a
// correctness risk.
func (s *Server) resolveBase(j *job) {
	var base *job
	var reason string
	if j.req.BaseJob == "auto" {
		if base = s.findAutoBase(j); base == nil {
			reason = "no completed compatible base job found"
		}
	} else if b, ok := s.store.get(j.req.BaseJob); ok {
		base = b
	} else {
		reason = fmt.Sprintf("unknown base job %q", j.req.BaseJob)
	}
	if base != nil {
		st := base.status()
		cp := base.lastCheckpoint()
		switch {
		case base.isTombstone():
			reason = fmt.Sprintf("base job %s lost its output to journal corruption", base.id)
		case st.State != StateDone:
			reason = fmt.Sprintf("base job %s is %s, not done", base.id, st.State)
		case cp == nil:
			reason = fmt.Sprintf("base job %s has no retained checkpoint", base.id)
		default:
			imported, edited, err := confmask.ImportCheckpoint(cp, base.req.Configs, j.req.Configs, j.req.Options)
			if err == nil {
				stages := reusedStagesFor(imported.Stage)
				j.noteIncremental(base.id, stages, edited)
				j.mu.Lock()
				j.resume = imported
				j.lastCP = imported
				jw := j.jw
				j.mu.Unlock()
				if jw != nil {
					if werr := jw.writeCheckpoint(imported); werr != nil {
						// The sticky journal error fails the job through the
						// usual progress-path check; nothing more to do here.
						return
					}
				}
				s.metrics.JobsIncremental.Add(1)
				s.metrics.StagesReused.Add(int64(len(stages)))
				return
			}
			reason = err.Error()
			if cls := confmask.ClassifyEdit(base.req.Configs, j.req.Configs); cls != "" {
				reason += " (" + cls + ")"
			}
		}
	}
	j.noteIncrementalFallback(reason)
	s.metrics.IncrementalFallbacks.Add(1)
}

// findAutoBase picks the completed, checkpointed job with the largest
// per-device manifest overlap whose options produce comparable output;
// ties go to the newest job. Nil when nothing overlaps at all.
func (s *Server) findAutoBase(j *job) *job {
	var best *job
	bestOverlap := 0
	for _, cand := range s.store.all() {
		if cand.id == j.id || cand.isTombstone() {
			continue
		}
		if cand.status().State != StateDone || cand.lastCheckpoint() == nil {
			continue
		}
		if cand.req == nil || !sameOutputOptions(cand.req.Options, j.req.Options) {
			continue
		}
		ov := manifestOverlap(cand.manifest, j.manifest)
		if ov > bestOverlap || (ov == bestOverlap && ov > 0 && best != nil && cand.id > best.id) {
			best, bestOverlap = cand, ov
		}
	}
	return best
}

// sameOutputOptions reports whether two option sets produce the same
// anonymization decisions for the same input. Parallelism is excluded
// (results are byte-identical at any worker count).
func sameOutputOptions(a, b confmask.Options) bool {
	return a.KR == b.KR && a.KH == b.KH && a.NoiseP == b.NoiseP &&
		a.Seed == b.Seed && a.Strategy == b.Strategy &&
		a.FakeRouters == b.FakeRouters && a.OutputSyntax == b.OutputSyntax
}

// reusedStagesFor lists the pipeline stages a checkpoint at the given
// stage lets a resumed run skip. Preprocessing counts: a checkpoint
// covering every baseline consumer skips the simulation too.
func reusedStagesFor(stage string) []string {
	switch stage {
	case "anonymity":
		return []string{"preprocess", "topology", "equivalence", "anonymity"}
	case "equivalence":
		return []string{"preprocess", "topology", "equivalence"}
	case "topology":
		return []string{"topology"}
	default:
		return nil
	}
}

// execute is the worker's panic isolation boundary: one job's pipeline
// runs inside it, and a panic anywhere in that pipeline — including fault
// injections and progress callbacks — converts to a *panicError for that
// job alone. The daemon and its other workers keep running.
func (s *Server) execute(ctx context.Context, configs map[string]string, opts confmask.Options) (result map[string]string, report *confmask.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, report = nil, nil
			err = &panicError{val: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	if err := faults.Fire("worker.run"); err != nil {
		return nil, nil, err
	}
	return confmask.AnonymizeContext(ctx, configs, opts)
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantPattern validates X-Tenant values: short, path- and header-safe.
var tenantPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// DefaultTenant is the tenant jobs land under when X-Tenant is absent.
const DefaultTenant = "default"

// handleSubmit accepts a job: 202 on enqueue, 200 when deduplicated to an
// existing job, 429 when the tenant is over its submit rate or the queue
// is full (both with Retry-After), 503 when shutting down. The X-Tenant
// header routes the job to its tenant's queue; absent means "default".
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = DefaultTenant
	}
	if !tenantPattern.MatchString(tenant) {
		writeError(w, http.StatusBadRequest, "invalid X-Tenant %q: want 1-64 chars of [A-Za-z0-9._-]", tenant)
		return
	}
	if s.limiter != nil {
		if ok, retry := s.limiter.Allow(tenant, time.Now()); !ok {
			s.metrics.RateLimited.Add(1)
			secs := int(math.Ceil(retry.Seconds()))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests,
				"tenant %q over submit rate (%.3g jobs/s); retry in %ds", tenant, s.cfg.TenantRate, secs)
			return
		}
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, 128<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return
	}
	req.Tenant = tenant
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "request has no configs")
		return
	}
	if req.BaseJob != "" && req.BaseJob != "auto" {
		// An explicitly named base must at least exist now; whether it is
		// done and checkpointed is re-checked at run time (it may still be
		// running), falling back to a full run if not.
		if _, ok := s.store.get(req.BaseJob); !ok {
			writeError(w, http.StatusBadRequest, "unknown base job %q", req.BaseJob)
			return
		}
	}
	// Zero-valued options fields fall back to the paper defaults inside
	// the pipeline itself, so an empty "options" object is valid.

	// Everything from the dedup check to the queue send happens under mu
	// so a concurrent Shutdown cannot strand a job in the queue.
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	j, existing := s.store.add(&req, time.Now())
	if existing {
		s.mu.Unlock()
		s.metrics.JobsDeduped.Add(1)
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	if s.journal != nil {
		// The submission is only accepted once it is durable: journal dir,
		// fsync'd submitted record, and the queued event on disk.
		jw, err := s.journal.create(j.id, &req, j.hash, j.created)
		if err == nil {
			if aerr := j.attachJournal(jw); aerr != nil {
				jw.close()
				err = aerr
			}
		}
		if err != nil {
			s.store.remove(j)
			s.journal.discard(j.id)
			s.mu.Unlock()
			s.metrics.JournalErrors.Add(1)
			writeError(w, http.StatusInternalServerError, "cannot journal job: %v", err)
			return
		}
	}
	// Snapshot the status before the job reaches the scheduler: once it is
	// queued a worker may start it, and the 202 body describes the job as
	// it was accepted, not whatever state it has reached since.
	accepted := j.status()
	if !s.enqueue(j, false) {
		s.store.remove(j)
		if s.journal != nil {
			s.journal.discard(j.id)
		}
		s.mu.Unlock()
		s.metrics.JobsRejected.Add(1)
		// Retry-After tells well-behaved clients (confmask submit among
		// them) how long to back off before resubmitting.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.mu.Unlock()
	s.metrics.JobsSubmitted.Add(1)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, accepted)
}

// defaultListLimit caps GET /v1/jobs pages when ?limit= is absent. A
// long-lived daemon accumulates unbounded job history; the cap keeps one
// list call from serializing all of it.
const defaultListLimit = 200

// maxListLimit bounds ?limit= explicitly asked for.
const maxListLimit = 1000

// handleList pages through job statuses, newest first. ?state= filters by
// job state, ?limit= sizes the page (default 200, max 1000), ?after=<id>
// resumes below that job ID. A truncated page carries next_after: pass it
// back as ?after= for the next page.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit=%q: want a positive integer", v)
			return
		}
		limit = n
		if limit > maxListLimit {
			limit = maxListLimit
		}
	}
	var stateFilter State
	if v := q.Get("state"); v != "" {
		stateFilter = State(v)
		switch stateFilter {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateDraining, StateRequeued:
		default:
			writeError(w, http.StatusBadRequest, "bad state=%q", v)
			return
		}
	}
	after := q.Get("after")

	all := s.store.list() // newest (largest ID) first
	jobs := make([]Status, 0, limit)
	nextAfter := ""
	for _, st := range all {
		if after != "" && st.ID >= after {
			continue
		}
		if stateFilter != "" && st.State != stateFilter {
			continue
		}
		if len(jobs) == limit {
			// One more match exists beyond the page: report the cursor.
			nextAfter = jobs[len(jobs)-1].ID
			break
		}
		jobs = append(jobs, st)
	}
	resp := map[string]any{"jobs": jobs}
	if nextAfter != "" {
		resp["next_after"] = nextAfter
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's event log as NDJSON: full replay (or
// from ?after=SEQ), then live follow until the job reaches a terminal
// state or the client disconnects. ?follow=false stops after the replay.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		// Atoi, not Sscanf: %d scans a leading integer and ignores
		// trailing garbage, silently accepting values like "3x".
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad after=%q", v)
			return
		}
		after = n
	}
	follow := r.URL.Query().Get("follow") != "false"

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for {
		events, state, changed := j.eventsSince(after)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
			after = e.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if state.Terminal() || !follow {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.quit:
			// Graceful shutdown: close follower streams of non-terminal
			// jobs instead of holding http.Server.Shutdown hostage. The
			// client sees a clean end-of-stream and reconnects with
			// ?after=<seq> once a daemon is back.
			return
		}
	}
}

// handleResult returns the anonymized configurations of a done job; 409
// with the current state otherwise.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.isTombstone() {
		writeError(w, http.StatusGone, "job %q output lost: %s", j.id, j.status().Error)
		return
	}
	st := j.status()
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("job is %s, not done", st.State),
			"state": st.State,
		})
		return
	}
	j.mu.Lock()
	result := j.result
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      st.ID,
		"configs": result,
		"report":  st.Report,
	})
}

// handleCancel requests cancellation: a queued job dies before starting,
// a running job's context is cancelled and the pipeline notices within
// one Algorithm 1 iteration. 409 once the job is already terminal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !j.requestCancel() {
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": fmt.Sprintf("job already %s", j.status().State),
			"state": j.status().State,
		})
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	down := s.shuttingDown
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if down {
		status = "shutting_down"
		code = http.StatusServiceUnavailable
	}
	// The pre-fleet fields keep their names and types; per-node identity
	// rides alongside so `curl /healthz` tells fleet members apart.
	writeJSON(w, code, map[string]any{
		"status":         status,
		"workers":        s.cfg.Workers,
		"queue_capacity": s.cfg.QueueDepth,
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"durable":        s.journal != nil,
		"node_id":        s.cfg.NodeID,
		"leases_held":    s.metrics.LeasesHeld.Value(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap["node_id"] = s.cfg.NodeID
	snap["tenant_queue_depth"] = s.sched.Depths()
	writeJSON(w, http.StatusOK, snap)
}
