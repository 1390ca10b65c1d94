package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"confmask"
	"confmask/internal/query"
	"confmask/internal/service"
)

// daemon is a confmaskd process started by the benchmark. Its standard
// error is scanned for the listen address and, when the daemon runs with
// GODEBUG=gctrace=1, for the CPU time each garbage collection took.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logDone chan struct{}

	mu    sync.Mutex
	gcCPU float64 // seconds, summed over the gctrace lines seen so far
	log   []string
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	gcTraceRE = regexp.MustCompile(`, ([0-9.+/]+) ms cpu,`)
)

// startDaemon starts confmaskd on a kernel-chosen loopback port over
// dataDir with two workers, and returns once it is listening.
func startDaemon(ctx context.Context, bin, dataDir string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-workers", "2")
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start confmaskd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.scan(sc.Text(), addr)
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.logDone:
	case <-ctx.Done():
	case <-time.After(60 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("confmaskd did not start listening: %s", d.lastLog())
}

func (d *daemon) scan(line string, addr chan<- string) {
	if m := listenRE.FindStringSubmatch(line); m != nil {
		select {
		case addr <- m[1]:
		default:
		}
	}
	var cpu float64
	if m := gcTraceRE.FindStringSubmatch(line); m != nil {
		for _, f := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '+' || r == '/' }) {
			v, _ := strconv.ParseFloat(f, 64)
			cpu += v / 1000
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gcCPU += cpu
	if cpu == 0 && len(d.log) < 100 {
		d.log = append(d.log, line)
	}
}

// gcCPUSeconds is the GC CPU time the daemon has reported so far (zero
// without gctrace).
func (d *daemon) gcCPUSeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gcCPU
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.log) == 0 {
		return "no output"
	}
	return d.log[len(d.log)-1]
}

// cpuSeconds reads the daemon's user plus system CPU time from
// /proc/<pid>/stat, in clock ticks of 1/100 s.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may contain spaces; fields count
	// from the closing parenthesis.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// peakRSS reads the daemon's peak resident set so far (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the daemon down gracefully; one that has not exited after a
// minute is killed. The benchmark stops a daemon only when it is idle.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(time.Minute, func() { _ = d.cmd.Process.Kill() })
	defer timer.Stop()
	<-d.logDone
	err := d.cmd.Wait()
	// confmaskd installs its SIGTERM handler only after the goroutine that
	// announces its address has started serving, so a daemon stopped just
	// after answering its first requests can die of the signal instead of
	// draining. An idle daemon has synced its journal, so that is a stop.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("confmaskd exited: %w (%s)", err, d.lastLog())
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}

// client speaks confmaskd's HTTP API.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// do sends one request and decodes a JSON answer into out; any status but
// want is an error.
func (c *client) do(ctx context.Context, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// events follows a job's event stream until the daemon closes it at the
// job's terminal state.
func (c *client) events(ctx context.Context, id string) ([]service.Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	var evs []service.Event
	dec := json.NewDecoder(resp.Body)
	for {
		var e service.Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("events %s: %w", id, err)
		}
		evs = append(evs, e)
	}
	if len(evs) == 0 || !evs[len(evs)-1].State.Terminal() {
		return nil, fmt.Errorf("events %s: stream ended before a terminal state", id)
	}
	return evs, nil
}

// query sends one verification batch and returns its answers.
func (c *client) query(ctx context.Context, id string, qs []query.Query) ([]query.Result, error) {
	data, err := json.Marshal(map[string]any{"queries": qs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs/"+id+"/query", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("query %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	out := make([]query.Result, 0, len(qs))
	dec := json.NewDecoder(resp.Body)
	for len(out) < len(qs) {
		var res query.Result
		if err := dec.Decode(&res); err != nil {
			return nil, fmt.Errorf("query %s: answer %d: %w", id, len(out), err)
		}
		out = append(out, res)
	}
	_, err = io.Copy(io.Discard, resp.Body) // the trailing stats line
	return out, err
}

// countDone lists the daemon's jobs and returns how many are done.
func (c *client) countDone(ctx context.Context) (int, error) {
	var page struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs?limit=1000", nil, http.StatusOK, &page); err != nil {
		return 0, err
	}
	n := 0
	for _, j := range page.Jobs {
		if j.State == service.StateDone {
			n++
		}
	}
	return n, nil
}

// jobTimes is what one job told the client about where its time went.
type jobTimes struct {
	submitMS    float64            // POST /v1/jobs round trip
	queueWaitMS float64            // submit until the first stage event
	latencyMS   float64            // submit until the terminal event arrived
	overheadMS  float64            // latency − queue wait − the stages
	resultMS    float64            // GET /v1/jobs/{id}/result round trip
	stages      map[string]float64 // seconds per stage, from event timestamps
	allocMB     map[string]float64 // per stage, from prev_stage_alloc_bytes
	report      *confmask.Report
}

// runJob submits one anonymization job, follows it to the terminal event
// and fetches its result; it records the job and its stages as spans.
func (c *client) runJob(ctx context.Context, r *run, parent int, name string, configs map[string]string, opts confmask.Options) (string, *jobTimes, map[string]string, error) {
	span := r.reserveSpan(parent, name)
	defer r.closeSpan(span)
	t0 := time.Now()
	var st service.Status
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", service.Request{Configs: configs, Options: opts}, http.StatusAccepted, &st); err != nil {
		return "", nil, nil, err
	}
	jt := &jobTimes{submitMS: msSince(t0), stages: map[string]float64{}, allocMB: map[string]float64{}}
	evs, err := c.events(ctx, st.ID)
	if err != nil {
		return st.ID, nil, nil, err
	}
	jt.latencyMS = msSince(t0)
	if last := evs[len(evs)-1]; last.State != service.StateDone {
		return st.ID, nil, nil, fmt.Errorf("job %s ended %s: %s", st.ID, last.State, last.Error)
	}
	sum := 0.0
	for i, e := range evs {
		if e.PrevStage != "" {
			jt.allocMB[e.PrevStage] += float64(e.PrevStageAllocBytes) / (1 << 20)
		}
		if e.Stage == "" || i+1 == len(evs) {
			continue
		}
		if jt.queueWaitMS == 0 {
			jt.queueWaitMS = e.Time.Sub(t0).Seconds() * 1000
		}
		next := evs[i+1]
		jt.stages[e.Stage] += next.Time.Sub(e.Time).Seconds()
		sum += next.Time.Sub(e.Time).Seconds()
		var alloc uint64
		if next.PrevStage == e.Stage {
			alloc = next.PrevStageAllocBytes
		}
		r.addSpan(span, "stage."+e.Stage, e.Time, next.Time, alloc)
	}
	jt.overheadMS = jt.latencyMS - jt.queueWaitMS - sum*1000
	t1 := time.Now()
	var res struct {
		Configs map[string]string `json:"configs"`
		Report  *confmask.Report  `json:"report"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK, &res); err != nil {
		return st.ID, nil, nil, err
	}
	jt.resultMS = msSince(t1)
	jt.report = res.Report
	return st.ID, jt, res.Configs, nil
}

// stageTimes returns the job's stage times with its report's counts.
func (jt *jobTimes) stageTimes() stageTimes {
	st := stageTimes{sec: jt.stages, allocMB: jt.allocMB}
	if rep := jt.report; rep != nil {
		st.iters, st.fakeEdges, st.fakeHosts, st.filters = rep.Iterations, len(rep.FakeLinks), len(rep.FakeHosts), rep.FiltersAdded
	}
	return st
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1000 }
