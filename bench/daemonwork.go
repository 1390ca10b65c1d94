package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"confmask"
)

// netInput is one generated network a daemon workload submits.
type netInput struct {
	name    string
	configs map[string]string
	ni      netInfo
}

func generate(name string) (netInput, error) {
	configs, err := confmask.GenerateExample(name)
	if err != nil {
		return netInput{}, err
	}
	ni, err := netInfoOf(configs)
	if err != nil {
		return netInput{}, fmt.Errorf("%s: %w", name, err)
	}
	return netInput{name: name, configs: configs, ni: ni}, nil
}

func seededOptions(seed int64) confmask.Options {
	o := confmask.DefaultOptions()
	o.Seed = seed
	return o
}

// session is one client session: a job, its result, and the first
// verification batch against it.
type session struct {
	c            *client // of the daemon that ran the job
	net          int
	seed         int64
	id           string
	times        *jobTimes
	result       map[string]string
	firstBatchMS float64
}

// runSession submits one job, follows it to its end, fetches the result
// and sends one batch of queries drawn with the job's seed.
func (r *run) runSession(ctx context.Context, c *client, parent int, n netInput, net int, seed int64) (*session, error) {
	id, jt, result, err := c.runJob(ctx, r, parent, "job."+n.name, n.configs, seededOptions(seed))
	if err != nil {
		return nil, err
	}
	qs := queryMix(rand.New(rand.NewSource(seed)), n.ni, r.batch)
	t0 := time.Now()
	res, err := c.query(ctx, id, qs)
	s := &session{c: c, net: net, seed: seed, id: id, times: jt, result: result, firstBatchMS: msSince(t0)}
	return s, checkAnswers(qs, res, err)
}

// target is a daemon a window's items go to and, for the query workload,
// the done job its batches ask about.
type target struct {
	d   *daemon
	c   *client
	job string
}

func newTarget(d *daemon) *target { return &target{d: d, c: newClient(d.url)} }

// itemFunc runs one item against t and returns its latency.
type itemFunc func(ctx context.Context, t *target) (sample, error)

// windowResult is what a daemon window measured.
type windowResult struct {
	lat   [][]sample // item latencies by target
	perS  float64    // items per second
	rssMB float64    // the first target's peak RSS when the rssAt-th item completed
}

// daemonWindow runs items on two closed-loop clients for the run's window,
// sending them to the targets in turn. The daemon's caches grow with the
// items it serves, so its peak RSS is read when the rssAt-th item
// completes, a point that does not move with throughput, or at the end if
// the window serves fewer.
func (r *run) daemonWindow(ctx context.Context, targets []*target, rssAt int, item itemFunc) (*windowResult, error) {
	span := r.reserveSpan(0, "window")
	defer r.closeSpan(span)
	w := &windowResult{lat: make([][]sample, len(targets))}
	var mu sync.Mutex
	var rssErr error
	sent, done := 0, 0
	n, elapsed := r.closedLoop(ctx, 2, 1, r.window, func(ctx context.Context) error {
		mu.Lock()
		ti := sent % len(targets)
		sent++
		mu.Unlock()
		lat, err := item(ctx, targets[ti])
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		w.lat[ti] = append(w.lat[ti], lat)
		if done++; done == rssAt {
			w.rssMB, rssErr = targets[0].d.peakRSS()
		}
		return nil
	})
	if n == 0 {
		return nil, fmt.Errorf("no item succeeded")
	}
	if n < rssAt {
		w.rssMB, rssErr = targets[0].d.peakRSS()
	}
	w.perS = float64(n) / elapsed.Seconds()
	return w, rssErr
}

// measureDaemon measures the window on t. An untraced run reports the
// end-to-end metrics and stops t's daemon. A traced run starts a second
// daemon with GODEBUG=gctrace=1 (traced prepares it), alternates the
// window's items between the two, and reports the second daemon's CPU and
// GC time per item and how much slower its items were; the caller kills
// both daemons.
func (r *run) measureDaemon(ctx context.Context, t *target, rssAt int, item itemFunc, traced func(context.Context) (*target, error)) (*target, error) {
	if !r.traced {
		w, err := r.daemonWindow(ctx, []*target{t}, rssAt, item)
		if err != nil {
			t.d.kill()
			return nil, err
		}
		r.setTypical("item_p50_ms", w.lat[0])
		r.set("items_per_s", w.perS)
		r.set("peak_rss_mb", w.rssMB)
		return nil, t.d.stop()
	}
	gt, err := traced(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := gt.d.cpuSeconds()
	if err != nil {
		return gt, err
	}
	gc0 := gt.d.gcCPUSeconds()
	w, err := r.daemonWindow(ctx, []*target{t, gt}, rssAt, item)
	if err != nil {
		return gt, err
	}
	cpu1, err := gt.d.cpuSeconds()
	if err != nil {
		return gt, err
	}
	if len(w.lat[0]) == 0 || len(w.lat[1]) == 0 {
		return gt, errors.New("the window ran no item on one of its daemons")
	}
	items := float64(len(w.lat[1]))
	r.set("trace_overhead_frac", typicalMS(w.lat[1])/typicalMS(w.lat[0])-1)
	r.set("runtime.cpu_s", (cpu1-cpu0)/items)
	r.set("runtime.gc_cpu_s", (gt.d.gcCPUSeconds()-gc0)/items)
	return gt, nil
}

// The items after which the daemon workloads read the daemon's peak RSS.
const (
	catalogRSSAt = 32
	queryRSSAt   = 1000
)

// catalogWorkload serves the Table 2 catalog from one confmaskd: sessions
// cycle through the networks, each job with its own seed.
func catalogWorkload(networks []string) workloadFunc {
	return func(ctx context.Context, r *run) error {
		nets := make([]netInput, len(networks))
		for i, name := range networks {
			var err error
			if nets[i], err = generate(name); err != nil {
				return err
			}
		}
		jobSeed := func(i int) int64 { return r.seed*1_000_000 + int64(i) }

		// Set-up: one job per network on a first daemon, then restarts
		// over the journal it wrote, each timed until the daemon lists
		// every job as done.
		dataDir := filepath.Join(r.dir, "daemon")
		d, err := startDaemon(ctx, r.daemonBin, dataDir, false)
		if err != nil {
			return err
		}
		c := newClient(d.url)
		for i, n := range nets {
			_, _, _, err := c.runJob(ctx, r, 0, "setup.job."+n.name, n.configs, seededOptions(jobSeed(i)))
			r.attempt(err)
			if err != nil {
				d.kill()
				return err
			}
		}
		err = r.repeatSetup(func() (time.Duration, error) {
			if err := d.stop(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			var err error
			if d, err = startDaemon(ctx, r.daemonBin, dataDir, false); err != nil {
				return 0, err
			}
			c := newClient(d.url)
			for {
				done, err := c.countDone(ctx)
				if err != nil {
					return 0, err
				}
				if done == len(nets) {
					return time.Since(t0), nil
				}
				if time.Since(t0) > time.Minute {
					return 0, fmt.Errorf("restarted daemon lists %d of %d jobs", done, len(nets))
				}
				time.Sleep(time.Millisecond)
			}
		})
		if err != nil {
			if d != nil {
				d.kill()
			}
			return err
		}

		// Each daemon cycles through the networks on its own, so a traced
		// run's two daemons serve the same mix.
		var mu sync.Mutex
		var sessions []*session
		next := len(nets)
		cycle := map[*target]int{}
		item := func(ctx context.Context, t *target) (sample, error) {
			mu.Lock()
			i := next
			next++
			n := cycle[t] % len(nets)
			cycle[t]++
			mu.Unlock()
			s, err := r.runSession(ctx, t.c, 0, nets[n], n, jobSeed(i))
			if err != nil {
				return sample{}, err
			}
			mu.Lock()
			sessions = append(sessions, s)
			mu.Unlock()
			return sample{ms: s.times.latencyMS, kind: n}, nil
		}
		traced := func(ctx context.Context) (*target, error) {
			d, err := startDaemon(ctx, r.daemonBin, filepath.Join(r.dir, "daemon-gctrace"), true)
			if err != nil {
				return nil, err
			}
			return newTarget(d), nil
		}
		gt, err := r.measureDaemon(ctx, newTarget(d), catalogRSSAt, item, traced)
		if r.traced {
			defer d.kill()
			if gt != nil {
				defer gt.d.kill()
			}
		}
		if err != nil {
			return err
		}

		// The first session of each network must match an in-process
		// confmask.Anonymize with the same options byte for byte.
		first := map[int]*session{}
		byNet := map[int][]stageTimes{}
		var jobs []*jobTimes
		var firstBatch []float64
		for _, s := range sessions {
			if first[s.net] == nil {
				first[s.net] = s
			}
			byNet[s.net] = append(byNet[s.net], s.times.stageTimes())
			jobs = append(jobs, s.times)
			firstBatch = append(firstBatch, s.firstBatchMS)
		}
		for net, s := range first {
			want, _, err := confmask.Anonymize(nets[net].configs, seededOptions(s.seed))
			if err != nil {
				return err
			}
			r.check(hashConfigs(want) == hashConfigs(s.result), "%s: daemon output differs from confmask.Anonymize", nets[net].name)
		}
		if !r.traced {
			return nil
		}

		total := layerSums{}
		for net, s := range first {
			p, err := r.probeNetwork(ctx, nets[net].configs, s.result)
			if err != nil {
				return err
			}
			p.sums.addStages(byNet[net], 1)
			if err := r.transport(ctx, s.c, s.id, p); err != nil {
				return err
			}
			total.add(p.sums)
		}
		// The run's directory holds the two daemons' data directories.
		journal, err := dirMB(r.dir)
		if err != nil {
			return err
		}
		r.setService(jobs, firstBatch, journal/float64(len(nets)+len(sessions)))
		r.setLayers(total)
		return nil
	}
}

// queryWorkload is verifier traffic: closed-loop query batches against one
// done job.
func queryWorkload(network string) workloadFunc {
	return func(ctx context.Context, r *run) error {
		n, err := generate(network)
		if err != nil {
			return err
		}

		// Set-up: time to first verdict, on fresh daemons: submit the
		// network, follow the job, fetch the result, answer a first batch.
		var d *daemon
		var s *session
		var jobs []*jobTimes
		var firstBatch []float64
		dirs := 0
		newDir := func() string {
			dirs++
			return filepath.Join(r.dir, fmt.Sprint("daemon", dirs))
		}
		firstVerdict := func(ctx context.Context, gctrace bool) (*daemon, *session, time.Duration, error) {
			d, err := startDaemon(ctx, r.daemonBin, newDir(), gctrace)
			if err != nil {
				return nil, nil, 0, err
			}
			t0 := time.Now()
			s, err := r.runSession(ctx, newClient(d.url), 0, n, 0, r.seed)
			sec := time.Since(t0)
			r.attempt(err)
			if err != nil {
				d.kill()
				return nil, nil, 0, err
			}
			jobs = append(jobs, s.times)
			firstBatch = append(firstBatch, s.firstBatchMS)
			return d, s, sec, nil
		}
		err = r.repeatSetup(func() (time.Duration, error) {
			if d != nil {
				if err := d.stop(); err != nil {
					return 0, err
				}
			}
			prev := s
			var sec time.Duration
			var err error
			if d, s, sec, err = firstVerdict(ctx, false); err != nil {
				return 0, err
			}
			if prev != nil {
				r.check(hashConfigs(prev.result) == hashConfigs(s.result), "daemon outputs of one seed differ")
			}
			return sec, nil
		})
		if err != nil {
			if d != nil {
				d.kill()
			}
			return err
		}
		lastDir := filepath.Join(r.dir, fmt.Sprint("daemon", dirs))

		var mu sync.Mutex
		next := 0
		item := func(ctx context.Context, t *target) (sample, error) {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			qs := queryMix(rand.New(rand.NewSource(r.seed*1_000_000+int64(i))), n.ni, r.batch)
			t0 := time.Now()
			res, err := t.c.query(ctx, t.job, qs)
			return sample{ms: msSince(t0)}, checkAnswers(qs, res, err)
		}
		traced := func(ctx context.Context) (*target, error) {
			gd, gs, _, err := firstVerdict(ctx, true)
			if err != nil {
				return nil, err
			}
			r.check(hashConfigs(gs.result) == hashConfigs(s.result), "daemon outputs of one seed differ")
			gt := newTarget(gd)
			gt.job = gs.id
			return gt, nil
		}
		t := newTarget(d)
		t.job = s.id
		gt, err := r.measureDaemon(ctx, t, queryRSSAt, item, traced)
		if r.traced {
			defer d.kill()
			if gt != nil {
				defer gt.d.kill()
			}
		}
		if err != nil || !r.traced {
			return err
		}

		p, err := r.probeNetwork(ctx, n.configs, s.result)
		if err != nil {
			return err
		}
		var stages []stageTimes
		for _, j := range jobs {
			stages = append(stages, j.stageTimes())
		}
		p.sums.addStages(stages, 1)
		if err := r.transport(ctx, t.c, s.id, p); err != nil {
			return err
		}
		journal, err := dirMB(lastDir)
		if err != nil {
			return err
		}
		r.setService(jobs, firstBatch, journal)
		r.setLayers(p.sums)
		return nil
	}
}

// serviceProbe runs an anon workload's network once through a fresh
// confmaskd, so the service layer is measured on every workload: it times
// the job and the query transport, and checks that the daemon's output is
// byte-identical to the CLI's.
func (r *run) serviceProbe(ctx context.Context, configs, anon map[string]string, p *probe) error {
	dataDir := filepath.Join(r.dir, "probe-daemon")
	d, err := startDaemon(ctx, r.daemonBin, dataDir, false)
	if err != nil {
		return err
	}
	defer d.kill()
	n := netInput{name: "probe", configs: configs, ni: p.ni}
	s, err := r.runSession(ctx, newClient(d.url), 0, n, 0, r.seed)
	if err != nil {
		return err
	}
	r.check(hashConfigs(s.result) == hashConfigs(anon), "daemon output differs from the CLI output")
	if err := r.transport(ctx, newClient(d.url), s.id, p); err != nil {
		return err
	}
	journal, err := dirMB(dataDir)
	if err != nil {
		return err
	}
	r.setService([]*jobTimes{s.times}, []float64{s.firstBatchMS}, journal)
	return nil
}
