package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"confmask"
)

// childEnv switches the bench binary into its anonymization child mode.
// The anon workloads re-execute the binary with it set, so every run
// starts in a fresh process and, like a CLI user's run, keeps no cache
// from the previous one.
const childEnv = "CONFMASK_BENCH_CHILD"

// childReport is what a child prints on its standard output. Times are
// Unix nanoseconds, so the parent can place them on its own timeline.
type childReport struct {
	Read     int64        `json:"read"`     // configurations read
	Returned int64        `json:"returned"` // AnonymizeContext returned
	Written  int64        `json:"written"`  // output written
	Stages   []childStage `json:"stages,omitempty"`
	AllocEnd uint64       `json:"alloc_end"` // heap bytes allocated when the pipeline returned
	GCCPU    float64      `json:"gc_cpu_s"`

	Iterations int `json:"iterations"`
	FakeLinks  int `json:"fake_links"`
	FakeHosts  int `json:"fake_hosts"`
	Filters    int `json:"filters"`
}

// childStage is one Options.Progress call: the stage that started, when,
// and the heap bytes allocated so far.
type childStage struct {
	Name  string `json:"name"`
	At    int64  `json:"at"`
	Alloc uint64 `json:"alloc"`
}

// childMain is the child: ReadConfigDir → AnonymizeContext →
// WriteConfigDir, the path the confmask CLI takes with -verify=false.
// Only a traced child sets Options.Progress.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration directory")
	out := fs.String("out", "", "output directory")
	seed := fs.Int64("seed", 1, "Options.Seed")
	traced := fs.Bool("trace", false, "report stage transitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	configs, err := confmask.ReadConfigDir(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep := childReport{Read: time.Now().UnixNano()}
	opts := confmask.DefaultOptions()
	opts.Seed = *seed
	if *traced {
		opts.Progress = func(stage string, _ int) {
			rep.Stages = append(rep.Stages, childStage{Name: stage, At: time.Now().UnixNano(), Alloc: heapAllocs()})
		}
	}
	anon, report, err := confmask.AnonymizeContext(context.Background(), configs, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Returned = time.Now().UnixNano()
	rep.AllocEnd = heapAllocs()
	if err := confmask.WriteConfigDir(*out, anon); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Written = time.Now().UnixNano()
	rep.GCCPU = gcCPUSeconds()
	rep.Iterations, rep.FakeLinks, rep.FakeHosts, rep.Filters = report.Iterations, len(report.FakeLinks), len(report.FakeHosts), report.FiltersAdded
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// anonRun is one child run as the parent saw it. Its latency runs from
// the spawn until the pipeline returned: writing the output afterwards is
// left out, because small-file writes on a disk shared with other tenants
// stall at random: on the development machine writing one FatTree08
// output took 20 to 140 ms, up to two fifths of the whole run.
type anonRun struct {
	latencyMS float64
	rssMB     float64
	cpuS      float64
	rep       childReport
	hash      string
}

// stageSpan is one pipeline stage of a traced child run.
type stageSpan struct {
	name       string
	start, end int64 // Unix ns
	alloc      uint64
}

// stages turns the child's progress calls into stage spans: each stage
// runs until the next one starts, the last until the pipeline returned.
func (c *childReport) stages() []stageSpan {
	out := make([]stageSpan, len(c.Stages))
	for i, s := range c.Stages {
		end, alloc := c.Returned, c.AllocEnd
		if i+1 < len(c.Stages) {
			end, alloc = c.Stages[i+1].At, c.Stages[i+1].Alloc
		}
		out[i] = stageSpan{name: s.Name, start: s.At, end: end, alloc: alloc - s.Alloc}
	}
	return out
}

// stageTimes sums a traced child's stage spans by stage.
func (a *anonRun) stageTimes() stageTimes {
	st := newStageTimes()
	for _, s := range a.rep.stages() {
		st.sec[s.name] += float64(s.end-s.start) / 1e9
		st.allocMB[s.name] += float64(s.alloc) / (1 << 20)
	}
	st.iters, st.fakeEdges, st.fakeHosts, st.filters = a.rep.Iterations, a.rep.FakeLinks, a.rep.FakeHosts, a.rep.Filters
	return st
}

// runChild anonymizes the configurations in dir in into out in a fresh
// child process and returns its latency, peak RSS and CPU time.
func (r *run) runChild(ctx context.Context, parent int, in, out string, traced bool) (*anonRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-in", in, "-out", out,
		"-seed", strconv.FormatInt(r.seed, 10), "-trace="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("anonymization child: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	a := &anonRun{}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		a.rssMB = float64(ru.Maxrss) / 1024
		a.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if err := json.Unmarshal(stdout.Bytes(), &a.rep); err != nil {
		return nil, fmt.Errorf("anonymization child report: %w", err)
	}
	a.latencyMS = time.Unix(0, a.rep.Returned).Sub(t0).Seconds() * 1000
	span := r.addSpan(parent, "anon.run", t0, t1, 0)
	r.addSpan(span, "cli.start_and_read", t0, time.Unix(0, a.rep.Read), 0)
	r.addSpan(span, "cli.write", time.Unix(0, a.rep.Returned), time.Unix(0, a.rep.Written), 0)
	for _, s := range a.rep.stages() {
		r.addSpan(span, "stage."+s.name, time.Unix(0, s.start), time.Unix(0, s.end), s.alloc)
	}
	output, err := readOutput(out)
	if err != nil {
		return nil, err
	}
	a.hash = hashConfigs(output)
	return a, nil
}

// readOutput reads an output directory keyed by hostname, as the daemon
// and confmask.Anonymize key their results.
func readOutput(dir string) (map[string]string, error) {
	files, err := confmask.ReadConfigDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(files))
	for name, text := range files {
		out[strings.TrimSuffix(name, ".cfg")] = text
	}
	return out, nil
}

func hashConfigs(configs map[string]string) string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s%d:%s", len(n), n, len(configs[n]), configs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// anonWorkload anonymizes one generated network again and again, each
// time in a fresh process, as a user of the confmask CLI would.
func anonWorkload(network string) workloadFunc {
	return func(ctx context.Context, r *run) error {
		// Set-up: generate the network, as `netgen` does. A CLI user pays
		// nothing else before a run. Writing the files where the children
		// read them is left untimed: small-file writes vary threefold from
		// run to run on a busy disk. The oracle's baseline is computed
		// after the window, also untimed. Each repetition starts from a
		// collected heap, so it does not pay for the previous one's garbage.
		var configs map[string]string
		err := r.repeatSetup(func() (time.Duration, error) {
			runtime.GC()
			t0 := time.Now()
			var err error
			configs, err = confmask.GenerateExample(network)
			return time.Since(t0), err
		})
		if err != nil {
			return err
		}
		in := filepath.Join(r.dir, "in")
		if err := confmask.WriteConfigDir(in, configs); err != nil {
			return err
		}

		// One client runs children back to back. A traced run alternates
		// untraced and traced children, so each traced child can be
		// compared with the untraced one just before it.
		var runs []*anonRun
		minItems := 1
		if r.traced {
			minItems = 2
		}
		span := r.reserveSpan(0, "window")
		n, _ := r.closedLoop(ctx, 1, minItems, r.window, func(ctx context.Context) error {
			i := len(runs)
			out := filepath.Join(r.dir, fmt.Sprint("out", i))
			a, err := r.runChild(ctx, span, in, out, r.traced && i%2 == 1)
			if err != nil {
				return err
			}
			runs = append(runs, a)
			if i > 0 {
				// Only the first output is kept, for the checks below.
				return os.RemoveAll(out)
			}
			return nil
		})
		r.closeSpan(span)
		if n == 0 {
			return fmt.Errorf("no anonymization run succeeded")
		}
		if !r.traced {
			var lat, rss []float64
			sum := 0.0
			for _, a := range runs {
				lat = append(lat, a.latencyMS)
				rss = append(rss, a.rssMB)
				sum += a.latencyMS
			}
			r.setMedian("item_p50_ms", lat)
			r.set("items_per_s", float64(n)/(sum/1000))
			r.setMedian("peak_rss_mb", rss)
		} else {
			var ratios []float64
			for i := 1; i < len(runs); i += 2 {
				ratios = append(ratios, runs[i].latencyMS/runs[i-1].latencyMS)
			}
			if len(ratios) == 0 {
				return fmt.Errorf("the window ran no traced child")
			}
			r.set("trace_overhead_frac", median(ratios)-1)
		}

		// Every repeat of one seed must write byte-identical output, and
		// that output must pass the anonymity and equivalence checks.
		for i, a := range runs[1:] {
			r.check(a.hash == runs[0].hash, "run %d output differs from run 0", i+1)
		}
		anon, err := readOutput(filepath.Join(r.dir, "out0"))
		if err != nil {
			return err
		}
		base, err := newBaseline(configs)
		if err != nil {
			return err
		}
		r.attempt(verifyAnon(base, anon, confmask.DefaultOptions().KR))
		if !r.traced {
			return nil
		}

		var stages []stageTimes
		var cpu, gcCPU []float64
		for _, a := range runs {
			cpu = append(cpu, a.cpuS)
			gcCPU = append(gcCPU, a.rep.GCCPU)
			if len(a.rep.Stages) > 0 {
				stages = append(stages, a.stageTimes())
			}
		}
		r.setMedian("runtime.cpu_s", cpu)
		r.setMedian("runtime.gc_cpu_s", gcCPU)
		p, err := r.probeNetwork(ctx, configs, anon)
		if err != nil {
			return err
		}
		p.sums.addStages(stages, 2)
		if err := r.serviceProbe(ctx, configs, anon, p); err != nil {
			return err
		}
		r.setLayers(p.sums)
		return nil
	}
}
