package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"confmask"
	"confmask/internal/config"
	"confmask/internal/kdegree"
	"confmask/internal/query"
	"confmask/internal/sim"
	"confmask/internal/topology"
)

// stageTimes is where one anonymization spent its time, by pipeline
// stage, with the counts its report gave.
type stageTimes struct {
	sec                                  map[string]float64
	allocMB                              map[string]float64
	iters, fakeEdges, fakeHosts, filters int
}

func newStageTimes() stageTimes {
	return stageTimes{sec: map[string]float64{}, allocMB: map[string]float64{}}
}

// layerSums holds the additive per-layer quantities of one network, or of
// several networks added together; setLayers turns them into metrics.
type layerSums map[string]float64

func (l layerSums) add(o layerSums) {
	for k, v := range o {
		l[k] += v
	}
}

var stageNames = []string{"preprocess", "topology", "equivalence", "anonymity", "render"}

// addStages adds the median stage times and counts of one network's
// anonymizations, and the part of the preprocess and equivalence stages
// the network's sim probes explain. The probes must already be in l.
// digests is the number of pair-digest extractions the equivalence stage
// makes: 2 (original and anonymized), or 1 when the run writes checkpoints,
// because the topology checkpoint then extracts the original's digests.
func (l layerSums) addStages(items []stageTimes, digests float64) {
	if len(items) == 0 {
		return
	}
	pick := func(f func(stageTimes) float64) float64 {
		var xs []float64
		for _, it := range items {
			xs = append(xs, f(it))
		}
		return median(xs)
	}
	for _, s := range stageNames {
		l["anonymize."+s+"_s"] += pick(func(it stageTimes) float64 { return it.sec[s] })
	}
	for _, s := range []string{"preprocess", "equivalence", "anonymity"} {
		l["anonymize."+s+"_alloc_mb"] += pick(func(it stageTimes) float64 { return it.allocMB[s] })
	}
	iters := pick(func(it stageTimes) float64 { return float64(it.iters) })
	l["anonymize.equivalence_iters"] += iters
	l["anonymize.fake_edges"] += pick(func(it stageTimes) float64 { return float64(it.fakeEdges) })
	l["anonymize.fake_hosts"] += pick(func(it stageTimes) float64 { return float64(it.fakeHosts) })
	l["anonymize.filters"] += pick(func(it stageTimes) float64 { return float64(it.filters) })
	// The model of each stage: preprocess builds and simulates the
	// original; every equivalence iteration re-simulates the anonymized
	// network (the first one cold), and the stage extracts digests.
	l["raw.explained_preprocess_s"] += l["sim.build_s"] + l["sim.simulate_s"]
	l["raw.explained_equivalence_s"] += l["sim.simulate_anon_s"] + (iters-1)*l["sim.resimulate_s"] + digests*l["sim.digest_s"]
}

// netInfo is what the query mix draws from: the real hosts, the routers
// and the router-to-router links of the original network.
type netInfo struct {
	hosts, routers, links []string
}

func netInfoOf(configs map[string]string) (netInfo, error) {
	net, err := config.ParseNetwork(configs)
	if err != nil {
		return netInfo{}, err
	}
	view, err := sim.Build(net)
	if err != nil {
		return netInfo{}, err
	}
	ni := netInfo{hosts: net.Hosts(), routers: net.Routers()}
	g := view.Topology()
	for _, e := range g.Edges() {
		if g.KindOf(e.A) == topology.Router && g.KindOf(e.B) == topology.Router {
			ni.links = append(ni.links, e.A+"<->"+e.B)
		}
	}
	if len(ni.hosts) < 2 || len(ni.routers) == 0 {
		return netInfo{}, errors.New("network needs two hosts and a router for the query mix")
	}
	return ni, nil
}

var queryKinds = []query.Kind{query.Reachability, query.Waypoint, query.PathDiff, query.WhatIf}

// queryMix draws n queries between distinct real hosts, cycling through
// kinds (all four by default): waypoints pass a random router, what-ifs
// fail a random router link or router.
func queryMix(rng *rand.Rand, ni netInfo, n int, kinds ...query.Kind) []query.Query {
	if len(kinds) == 0 {
		kinds = queryKinds
	}
	qs := make([]query.Query, n)
	for i := range qs {
		src := ni.hosts[rng.Intn(len(ni.hosts))]
		dst := src
		for dst == src {
			dst = ni.hosts[rng.Intn(len(ni.hosts))]
		}
		q := query.Query{Kind: kinds[i%len(kinds)], Src: src, Dst: dst}
		switch q.Kind {
		case query.Waypoint:
			q.Via = ni.routers[rng.Intn(len(ni.routers))]
		case query.WhatIf:
			if len(ni.links) > 0 && rng.Intn(2) == 0 {
				q.FailLink = ni.links[rng.Intn(len(ni.links))]
			} else {
				q.FailNode = ni.routers[rng.Intn(len(ni.routers))]
			}
		}
		qs[i] = q
	}
	return qs
}

// checkAnswers is the verifier-side oracle: every query is answered
// without error, and every pathdiff between real hosts holds, as strong
// functional equivalence demands.
func checkAnswers(qs []query.Query, res []query.Result, err error) error {
	if err != nil {
		return err
	}
	if len(res) != len(qs) {
		return fmt.Errorf("%d answers to %d queries", len(res), len(qs))
	}
	for i, a := range res {
		if a.Error != "" {
			return fmt.Errorf("query %d (%s %s→%s): %s", i, qs[i].Kind, qs[i].Src, qs[i].Dst, a.Error)
		}
		if qs[i].Kind == query.PathDiff && !a.Holds {
			return fmt.Errorf("pathdiff %s→%s does not hold", qs[i].Src, qs[i].Dst)
		}
	}
	return nil
}

// baseline is what the anon workloads' oracle needs of the original
// network: its real hosts and their pair digests.
type baseline struct {
	hosts   []string
	digests *sim.PairDigests
}

func newBaseline(orig map[string]string) (*baseline, error) {
	net, err := config.ParseNetwork(orig)
	if err != nil {
		return nil, err
	}
	view, err := sim.Build(net)
	if err != nil {
		return nil, err
	}
	hosts := net.Hosts()
	return &baseline{hosts: hosts, digests: sim.SimulateNetOpts(view, sim.Options{}).PairDigestsFor(hosts)}, nil
}

// verifyAnon is the anon workloads' oracle. It re-parses the written
// output and checks k_R-degree anonymity of the re-derived router topology
// and strong functional equivalence: equal pair digests over the original
// hosts on the original and on the re-parsed network.
func verifyAnon(b *baseline, anon map[string]string, kr int) error {
	an, err := config.ParseNetwork(anon)
	if err != nil {
		return fmt.Errorf("re-parse output: %w", err)
	}
	av, err := sim.Build(an)
	if err != nil {
		return fmt.Errorf("output: %w", err)
	}
	if k := av.Topology().MinSameDegreeCount(); k < kr {
		return fmt.Errorf("output topology is only %d-degree anonymous, want %d", k, kr)
	}
	ad := sim.SimulateNetOpts(av, sim.Options{}).PairDigestsFor(b.hosts)
	if diff := b.digests.DiffPairs(ad); len(diff) > 0 {
		return fmt.Errorf("%d host pairs forward differently after anonymization (first %s→%s)", len(diff), diff[0].Src, diff[0].Dst)
	}
	return nil
}

// probe is the result of the in-process layer probes on one network.
type probe struct {
	sums   layerSums
	engine *query.Engine
	ni     netInfo
}

// probeNetwork times calls into each layer on one network — the original
// configurations and the anonymized output the workload produced from
// them — after the workload's own runs. Timings are medians of probeReps
// cold repetitions.
func (r *run) probeNetwork(ctx context.Context, orig, anon map[string]string) (*probe, error) {
	span := r.reserveSpan(0, "probes")
	defer r.closeSpan(span)
	ni, err := netInfoOf(orig)
	if err != nil {
		return nil, err
	}
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	timed := func(name string, f func()) {
		sec, mb := r.measure(span, name, f)
		add(name+"_s", sec)
		add(name+"_alloc_mb", mb)
	}
	for rep := 0; rep < probeReps; rep++ {
		var on, an *config.Network
		var ov, av *sim.Net
		var snap *sim.Snapshot
		var perr, berr error
		timed("config.parse", func() { on, perr = config.ParseNetwork(orig) })
		if perr != nil {
			return nil, perr
		}
		timed("sim.build", func() { ov, berr = sim.Build(on) })
		if berr != nil {
			return nil, berr
		}
		timed("sim.simulate", func() { snap = sim.SimulateNetOpts(ov, sim.Options{}) })
		hosts := on.Hosts()
		routers := on.Routers()
		timed("sim.digest", func() { snap.PairDigestsFor(hosts) })
		timed("sim.census", func() {
			for _, h := range hosts {
				snap.DeliveredFrom(h, routers)
			}
		})
		g := ov.Topology()
		rng := rand.New(rand.NewSource(r.seed))
		var kerr error
		timed("kdegree.anonymize", func() { _, kerr = kdegree.Anonymize(g, confmask.DefaultOptions().KR, rng) })
		if kerr != nil {
			return nil, kerr
		}
		if an, perr = config.ParseNetwork(anon); perr != nil {
			return nil, perr
		}
		timed("config.render", func() { an.Render() })
		timed("sim.simulate_anon", func() {
			if av, berr = sim.Build(an); berr == nil {
				sim.SimulateNetOpts(av, sim.Options{})
			}
		})
		if berr != nil {
			return nil, berr
		}
		timed("sim.resimulate", func() {
			av.InvalidateFilters()
			sim.SimulateNetOpts(av, sim.Options{})
		})
	}
	p := &probe{sums: layerSums{}, ni: ni}
	for _, name := range []string{"config.parse_s", "config.render_s", "kdegree.anonymize_s",
		"sim.build_s", "sim.simulate_s", "sim.digest_s", "sim.census_s", "sim.simulate_anon_s", "sim.resimulate_s",
		"sim.simulate_alloc_mb", "sim.digest_alloc_mb", "sim.census_alloc_mb"} {
		p.sums[name] = median(samples[name])
	}
	h := float64(len(ni.hosts))
	p.sums["sim.destinations"] = h
	p.sums["sim.host_pairs"] = h * (h - 1)

	// The query engine over the same two networks the daemon builds one
	// from, then one warm-up batch and one batch of each kind.
	var ebuild []float64
	for rep := 0; rep < probeReps; rep++ {
		var oerr, aerr error
		sec, _ := r.measure(span, "query.engine_build", func() {
			var origSnap, anonSnap *sim.Snapshot
			origSnap, oerr = query.FromConfigs(orig, 0)
			anonSnap, aerr = query.FromConfigs(anon, 0)
			if oerr == nil && aerr == nil {
				p.engine = query.New(anonSnap, query.Options{Baseline: origSnap})
			}
		})
		if err := errors.Join(oerr, aerr); err != nil {
			return nil, err
		}
		ebuild = append(ebuild, sec)
	}
	p.sums["query.engine_build_s"] = median(ebuild)
	rng := rand.New(rand.NewSource(r.seed))
	warm := queryMix(rng, ni, r.batch)
	r.attempt(checkAnswers(warm, p.engine.Run(ctx, warm), nil))
	for _, kind := range queryKinds {
		qs := queryMix(rng, ni, r.batch, kind)
		before := p.engine.Stats()
		var res []query.Result
		sec, _ := r.measure(span, "query."+string(kind), func() { res = p.engine.Run(ctx, qs) })
		r.attempt(checkAnswers(qs, res, nil))
		after := p.engine.Stats()
		p.sums["raw."+string(kind)+"_us"] += sec * 1e6
		p.sums["raw."+string(kind)+"_n"] += float64(len(qs))
		p.sums["raw.whatif_reused"] += float64(after.WhatIfReused - before.WhatIfReused)
		p.sums["raw.whatif_retraced"] += float64(after.WhatIfRetraced - before.WhatIfRetraced)
	}
	return p, nil
}

// transport sends the same batches to the daemon's engine for job id and
// to the in-process engine over the same networks, both warmed by one
// pass, and adds the time each took to p.
func (r *run) transport(ctx context.Context, c *client, id string, p *probe) error {
	rng := rand.New(rand.NewSource(r.seed + 1))
	batches := make([][]query.Query, 4)
	for i := range batches {
		batches[i] = queryMix(rng, p.ni, r.batch)
	}
	for _, qs := range batches {
		if _, err := c.query(ctx, id, qs); err != nil {
			return err
		}
		p.engine.Run(ctx, qs)
	}
	for _, qs := range batches {
		t0 := time.Now()
		res, err := c.query(ctx, id, qs)
		if err := checkAnswers(qs, res, err); err != nil {
			return err
		}
		t1 := time.Now()
		p.engine.Run(ctx, qs)
		p.sums["raw.http_s"] += t1.Sub(t0).Seconds()
		p.sums["raw.engine_s"] += time.Since(t1).Seconds()
	}
	return nil
}

// setLayers reports the per-layer metrics held in l; keys starting with
// "raw." are the parts of derived metrics.
func (r *run) setLayers(l layerSums) {
	for name, v := range l {
		if !strings.HasPrefix(name, "raw.") {
			r.set(name, v)
		}
	}
	for _, kind := range queryKinds {
		r.set("query."+string(kind)+"_us", l["raw."+string(kind)+"_us"]/l["raw."+string(kind)+"_n"])
	}
	r.set("query.whatif_reuse_frac", l["raw.whatif_reused"]/(l["raw.whatif_reused"]+l["raw.whatif_retraced"]))
	r.set("query.transport_frac", 1-l["raw.engine_s"]/l["raw.http_s"])
	r.set("anonymize.preprocess_unexplained_frac", 1-l["raw.explained_preprocess_s"]/l["anonymize.preprocess_s"])
	r.set("anonymize.equivalence_unexplained_frac", 1-l["raw.explained_equivalence_s"]/l["anonymize.equivalence_s"])
}

// setService reports the service-layer metrics: medians over the jobs a
// daemon ran, and the size of its data directory per job.
func (r *run) setService(jobs []*jobTimes, firstBatchMS []float64, journalMBPerJob float64) {
	var submit, wait, over, result []float64
	for _, j := range jobs {
		submit = append(submit, j.submitMS)
		wait = append(wait, j.queueWaitMS)
		over = append(over, j.overheadMS)
		result = append(result, j.resultMS)
	}
	r.setMedian("service.submit_ms", submit)
	r.setMedian("service.queue_wait_ms", wait)
	r.setMedian("service.overhead_ms", over)
	r.setMedian("service.result_ms", result)
	r.setMedian("query.first_batch_ms", firstBatchMS)
	r.set("service.journal_mb", journalMBPerJob)
}

// dirMB is the total size of the regular files under dir, in MB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return float64(total) / (1 << 20), err
}
