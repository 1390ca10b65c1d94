package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// run is the state of one benchmark invocation: the workload's settings,
// the metrics it has set, its item and check counts, and its spans. Client
// goroutines of the daemon workloads share it, so every method locks.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// daemonBin is the confmaskd binary the daemon workloads start; dir
	// is this run's scratch directory.
	daemonBin string
	dir       string
	// maxItems caps the items a window starts (0 = no cap); the smoke
	// test uses it to keep toy runs short.
	maxItems int
	// batch is the number of queries in one verification batch.
	batch int

	start time.Time

	mu        sync.Mutex
	metrics   map[string]metricValue
	attempted int
	failed    int
	problems  []string
	spans     []span
}

// metricValue is one reported metric: its value plus the sample count and
// range it was computed from. The unit comes from the spec.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// span is one timed interval: a phase of the benchmark, one item, a probe
// call, or a pipeline stage reported by the program under test. Start and
// End are seconds since the run began.
type span struct {
	ID         int     `json:"id"`
	Parent     int     `json:"parent"`
	Name       string  `json:"name"`
	Start      float64 `json:"start_s"`
	End        float64 `json:"end_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// Set-up is repeated at least setupReps times and until the repetitions
// add up to setupMin (at most maxSetupReps times), and each in-process
// probe probeReps times; each reports the median.
const (
	setupReps    = 5
	maxSetupReps = 200
	setupMin     = time.Second
	probeReps    = 3
)

func newRun(workload string, seed int64, window time.Duration, traced bool) *run {
	return &run{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		batch:    256,
		start:    time.Now(),
		metrics:  make(map[string]metricValue),
	}
}

// heapAllocs is the cumulative count of bytes this process has allocated
// on the heap, read from runtime/metrics, which does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPUSeconds is the CPU time this process has spent on garbage
// collection, as estimated by the runtime.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

func (r *run) since(t time.Time) float64 { return t.Sub(r.start).Seconds() }

// addSpan records a finished interval and returns its ID.
func (r *run) addSpan(parent int, name string, start, end time.Time, alloc uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: r.since(start), End: r.since(end), AllocBytes: alloc})
	return id
}

// reserveSpan records an open span whose end closeSpan fills in later, so
// children can name it as their parent while it runs.
func (r *run) reserveSpan(parent int, name string) int {
	now := time.Now()
	return r.addSpan(parent, name, now, now, 0)
}

func (r *run) closeSpan(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.since(time.Now())
}

// measure runs f as a span and returns its wall seconds and the MB this
// process allocated while it ran.
func (r *run) measure(parent int, name string, f func()) (sec, allocMB float64) {
	a0 := heapAllocs()
	t0 := time.Now()
	f()
	t1 := time.Now()
	alloc := heapAllocs() - a0
	r.addSpan(parent, name, t0, t1, alloc)
	return t1.Sub(t0).Seconds(), float64(alloc) / (1 << 20)
}

// repeatSetup repeats a workload's set-up and reports the median of the
// times it returns as setup_s. Each call times only its own set-up, so it
// can leave untimed work (stopping the previous daemon) out.
func (r *run) repeatSetup(setup func() (time.Duration, error)) error {
	var secs []float64
	var total time.Duration
	for len(secs) < setupReps || (total < setupMin && len(secs) < maxSetupReps) {
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			return err
		}
		r.addSpan(0, "setup", t0, time.Now(), 0)
		secs = append(secs, d.Seconds())
		total += d
	}
	r.setMedian("setup_s", secs)
	return nil
}

// attempt counts one item or correctness check; a non-nil err counts it
// as failed and keeps the reason.
func (r *run) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.attempt(nil)
		return
	}
	r.attempt(fmt.Errorf(format, args...))
}

// set reports a metric computed from one measurement.
func (r *run) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metricValue{Value: v, N: 1, Min: v, Max: v}
}

// setMedian reports the median of samples; an empty sample set is left
// unreported, which the final output turns into an error. Tail
// percentiles are not reported: a window of the anon workloads holds too
// few items to have ten beyond any of them.
func (r *run) setMedian(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s := sorted(samples)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metricValue{Value: quantile(s, 0.5), N: len(s), Min: s[0], Max: s[len(s)-1]}
}

// sample is one item's latency and its kind: the network of a catalog job.
type sample struct {
	ms   float64
	kind int
}

// typicalMS is the mean over the kinds of items of each kind's median
// latency; for items of one kind it is their median. The plain median of a
// mix falls in the gap between its fast and its slow kinds, and jumps
// across it with the count of each.
func typicalMS(ss []sample) float64 {
	byKind := map[int][]float64{}
	for _, s := range ss {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	sum := 0.0
	for _, ms := range byKind {
		sum += median(ms)
	}
	return sum / float64(len(byKind))
}

// setTypical reports typicalMS of samples, with their count and range.
func (r *run) setTypical(name string, samples []sample) {
	if len(samples) == 0 {
		return
	}
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = s.ms
	}
	s := sorted(ms)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metricValue{Value: typicalMS(samples), N: len(s), Min: s[0], Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sorted(xs), 0.5)
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// host describes the machine and build a record was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	MemTotalMB int    `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "MemTotal:"); ok {
				kb, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
				h.MemTotalMB = kb / 1024
			}
		}
	}
	return h
}

// record is everything one invocation measured: the input to -compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Host      host                   `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record returns what the run measured, with the units the spec gives.
func (r *run) record(s *spec) record {
	r.mu.Lock()
	defer r.mu.Unlock()
	units := map[string]string{}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		units[m.Name] = m.Unit
	}
	ms := make(map[string]metricValue, len(r.metrics))
	for name, v := range r.metrics {
		v.Unit = units[name]
		ms[name] = v
	}
	return record{
		Workload:  r.workload,
		Seed:      r.seed,
		Seconds:   r.window.Seconds(),
		Traced:    r.traced,
		Host:      hostInfo(),
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Problems:  r.problems,
		Metrics:   ms,
	}
}

// report prints the metrics the spec lists for this mode, one
// "workload metric value unit" line each, and then the one-line JSON
// result; a listed metric the workload did not set is an error.
func (r *run) report(w io.Writer, s *spec) error {
	rec := r.record(s)
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := map[string]out{}
	for _, m := range s.metrics(r.traced) {
		v, ok := rec.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.workload, m.Name, v.Value, v.Unit)
		result[m.Name] = out{v.Value, v.Unit}
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.workload, p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rec.Correct,
		"attempted": rec.Attempted,
		"failed":    rec.Failed,
		"metrics":   result,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendJSONLine appends v as one JSON line to the file at path.
func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the run's spans as a JSON document.
func (r *run) writeSpans(path string) error {
	r.mu.Lock()
	doc := map[string]any{"workload": r.workload, "seed": r.seed, "spans": r.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
