// Command bench is the repository benchmark. It runs one workload for a
// fixed time and prints every metric as "workload metric value unit",
// then one JSON line with the result of its correctness checks and the
// metrics BENCHMARK.json lists:
//
//	bash bench/run.sh --workload ft08-anon --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it reports the per-layer metrics instead of the
// end-to-end ones. Every metric is measured from outside the program: by
// timing calls into its packages, reading Options.Progress callbacks,
// timing child processes, and driving confmaskd over HTTP.
//
//	bench -compare parent.ndjson change.ndjson
//
// compares the records (-record) of runs of two commits. bench/README.md
// describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"confmask"
)

// spec is BENCHMARK.json: the workloads, and the metrics with their units
// and regression bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics lists the metrics a run reports: the per-layer ones when traced,
// the end-to-end ones otherwise.
func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

type workloadFunc func(ctx context.Context, r *run) error

// workloads are the benchmark's workloads; bench/README.md gives the
// reasons for each.
func workloads() map[string]workloadFunc {
	return map[string]workloadFunc{
		"ft08-anon":      anonWorkload("FatTree08"),
		"mr10-anon":      anonWorkload("MultiRegion10x30"),
		"catalog-daemon": catalogWorkload(confmask.ExampleNetworks()),
		"ft08-query":     queryWorkload("FatTree08"),
	}
}

// closedLoop runs item on the given number of clients, each starting its
// next item when the previous one has returned, for the window d (or until
// r.maxItems items have started). An item starts only while the window is
// open, but the first minItems always start. Every item counts as
// attempted; it returns how many succeeded and the time until the last one
// ended.
func (r *run) closedLoop(ctx context.Context, clients, minItems int, d time.Duration, item func(context.Context) error) (int, time.Duration) {
	var mu sync.Mutex
	started, ok := 0, 0
	t0 := time.Now()
	take := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if started >= minItems && (time.Since(t0) >= d || ctx.Err() != nil || (r.maxItems > 0 && started >= r.maxItems)) {
			return false
		}
		started++
		return true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for take() {
				err := item(ctx)
				r.attempt(err)
				if err == nil {
					mu.Lock()
					ok++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ok, time.Since(t0)
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := benchMain(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func benchMain(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 0, "length of the measurement window (0: run_seconds of the spec)")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the run's spans to this file")
	recordOut := fs.String("record", "", "append the run's record (host, metrics with n/min/max) to this file")
	compare := fs.Bool("compare", false, "compare two record files: -compare parent.ndjson change.ndjson")
	daemonBin := fs.String("daemon", "", "confmaskd binary the daemon workloads start")
	work := fs.String("work", "", "directory for the run's scratch files (default: the system temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareRecords(stdout, s, fs.Arg(0), fs.Arg(1))
	}
	wf, ok := workloads()[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(s.RunSeconds) * time.Second
	}
	r := newRun(*workload, *seed, window, *trace == 1)
	r.daemonBin = *daemonBin
	if err := execute(ctx, r, wf, *work, s, stdout, *recordOut, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	return 0
}

// runDeadline bounds a whole run, set-up, checks and probes included.
const runDeadline = 170 * time.Second

// execute runs one workload in a scratch directory it removes afterwards,
// then writes its outputs.
func execute(ctx context.Context, r *run, wf workloadFunc, work string, s *spec, stdout io.Writer, recordOut, traceOut string) error {
	if work != "" {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp(work, r.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	if err := wf(ctx, r); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return errors.New("run did not finish in time")
	}
	if traceOut != "" {
		if err := r.writeSpans(traceOut); err != nil {
			return err
		}
	}
	if recordOut != "" {
		if err := appendJSONLine(recordOut, r.record(s)); err != nil {
			return err
		}
	}
	return r.report(stdout, s)
}
