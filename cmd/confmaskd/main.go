// Command confmaskd is the ConfMask anonymization service daemon: a
// long-running HTTP/JSON server that accepts anonymization jobs, runs
// them on a bounded worker pool with a FIFO queue and per-job timeouts,
// and streams per-stage progress.
//
// Usage:
//
//	confmaskd [-addr :8619] [-workers N] [-queue N] [-job-timeout 15m]
//	          [-data-dir DIR] [-pprof-addr 127.0.0.1:6060]
//	          [-node-id NAME] [-lease-ttl 15s] [-heartbeat 5s]
//	          [-tenant-quota N] [-tenant-rate R] [-tenant-burst N]
//
// With -data-dir the daemon is crash-safe: submissions and job events are
// journaled, stage checkpoints are persisted, and a restart against the
// same directory replays the journal — finished jobs stay queryable,
// unfinished jobs re-enqueue and resume from their last checkpoint with
// results byte-identical to an uninterrupted run.
//
// Several daemons may share one -data-dir to form a worker fleet: each
// claims jobs under a fenced lease (-node-id, -lease-ttl, -heartbeat),
// a coordinator loop requeues jobs whose owner died, and stale owners
// are fenced off the journal. Multi-tenant fairness rides on the
// X-Tenant submit header: per-tenant queues drained by deficit-weighted
// round-robin, -tenant-quota concurrent jobs per tenant, and a
// -tenant-rate/-tenant-burst token bucket answering 429 + Retry-After.
//
// Endpoints:
//
//	POST   /v1/jobs             submit {"configs": {...}, "options": {...}}
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events NDJSON progress stream (replay + follow)
//	GET    /v1/jobs/{id}/result anonymized configs + report (when done)
//	POST   /v1/jobs/{id}/query  verification query batch in, NDJSON answers out
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness
//	GET    /metrics             job counters + per-stage histograms
//
// The existing confmask CLI is the matching client: `confmask submit`,
// `confmask status`, `confmask query`, `confmask cancel`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"confmask/internal/faults"
	"confmask/internal/service"
	"confmask/internal/version"
)

func main() {
	addr := flag.String("addr", ":8619", "listen address")
	workers := flag.Int("workers", 2, "concurrent anonymization jobs")
	queue := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job wall-clock budget")
	stageTimeout := flag.Duration("stage-timeout", 10*time.Minute, "watchdog: max time a pipeline stage may go without progress")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for running jobs before stopping them")
	parallelism := flag.Int("parallelism", 0, "default per-job simulation parallelism (0 = GOMAXPROCS; jobs may override)")
	dataDir := flag.String("data-dir", "", "journal directory for crash-safe job recovery (empty = in-memory only)")
	maxRestarts := flag.Int("max-restarts", 3, "max daemon starts that may execute one journaled job before it fails")
	maxQueryBatch := flag.Int("max-query-batch", 4096, "max predicates per verification query batch")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-predicate evaluation budget on the query endpoint")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled; bind to localhost)")
	nodeID := flag.String("node-id", "", "worker identity for lease ownership in a shared data dir (empty = hostname; must differ per daemon on one host)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "job lease duration; a worker silent this long loses its jobs to the fleet")
	heartbeat := flag.Duration("heartbeat", 0, "lease renewal interval for running jobs (0 = lease-ttl/3)")
	tenantQuota := flag.Int("tenant-quota", 0, "max concurrently running jobs per tenant (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant submit rate limit in jobs/sec, token bucket (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant submit burst size (0 = derived from -tenant-rate)")
	faultSpec := flag.String("fault", "", "fault injection spec for chaos testing, e.g. 'service.journal.sync=drop,worker.run=panic@2' (testing only)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("confmaskd", version.String())
		return
	}
	if *faultSpec != "" {
		if err := faults.ArmSpec(*faultSpec); err != nil {
			log.Fatalf("bad -fault spec: %v", err)
		}
		log.Printf("FAULT INJECTION ARMED: %s", *faultSpec)
	}

	// Install the handler before anything announces the daemon: a
	// supervisor may send SIGTERM the moment "listening on" appears, and
	// a signal arriving before Notify would kill the process undrained.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	svc, err := service.Open(service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		JobTimeout:    *jobTimeout,
		StageTimeout:  *stageTimeout,
		Parallelism:   *parallelism,
		DataDir:       *dataDir,
		MaxRestarts:   *maxRestarts,
		MaxQueryBatch: *maxQueryBatch,
		QueryTimeout:  *queryTimeout,
		NodeID:        *nodeID,
		LeaseTTL:      *leaseTTL,
		Heartbeat:     *heartbeat,
		TenantQuota:   *tenantQuota,
		TenantRate:    *tenantRate,
		TenantBurst:   float64(*tenantBurst),
	})
	if err != nil {
		log.Fatalf("open service: %v", err)
	}

	// Profiling listener, separate from the API: pprof handlers are never
	// mounted on the job mux, so the default (no -pprof-addr) exposes
	// nothing, and when enabled the operator chooses a loopback-only bind.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("pprof listen: %v", err)
		}
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", pln.Addr())
			if err := http.Serve(pln, mux); err != nil {
				log.Printf("pprof serve: %v", err)
			}
		}()
	}

	// Listen before announcing: with -addr 127.0.0.1:0 the kernel picks the
	// port, and supervisors (and the recovery tests) parse it from the log.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: svc}

	errc := make(chan error, 1)
	go func() {
		log.Printf("confmaskd %s listening on %s (node %s, %d workers, queue %d, job timeout %v, data dir %q)",
			version.String(), ln.Addr(), svc.NodeID(), *workers, *queue, *jobTimeout, *dataDir)
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case sig := <-sigc:
		log.Printf("received %v, draining (running jobs get %v)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the job service first — new submissions already get 503, but
	// clients can keep polling status and following event streams while
	// running jobs finish; those streams end as jobs reach terminal
	// states, which is what lets the HTTP shutdown below return. With a
	// data dir, jobs still running at the deadline are requeued durably
	// (draining → requeued) instead of cancelled.
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("drain timed out, remaining jobs were stopped")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("confmaskd stopped")
}
