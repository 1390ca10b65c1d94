package anonymize

import (
	"fmt"
	"math/rand"
	"sort"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/topology"
)

// StageCheckpoint is a resumable snapshot of the pipeline taken at a stage
// boundary. It is everything a fresh process needs to continue the run and
// produce output byte-identical to an uninterrupted one:
//
//   - the intermediate network, as rendered IOS configuration text
//     (render ∘ parse round-trips the model exactly);
//   - the random-stream position, as a count of consumed source draws
//     (the pipeline's RNG is seeded, so replaying the count realigns it);
//   - the pool-independent bookkeeping a render cannot carry (the
//     Injected flags that mark anonymization artifacts);
//   - the partial report accumulated so far.
//
// The prefix pool needs no explicit state: allocation is "first free block
// not overlapping any used prefix", and every allocated prefix appears in
// the rendered intermediate configuration, so rebuilding the pool from the
// checkpoint's UsedPrefixes reproduces the allocation cursor exactly.
type StageCheckpoint struct {
	// Stage is the completed stage: "topology", "equivalence", or
	// "anonymity".
	Stage string `json:"stage"`
	// Configs is the intermediate network in rendered IOS form, keyed by
	// hostname.
	Configs map[string]string `json:"configs"`
	// RNGDraws counts the random source draws consumed up to the stage
	// boundary.
	RNGDraws uint64 `json:"rng_draws"`
	// InjectedIfaces maps device name → interface names whose Injected
	// flag was set; the flag is deliberately never rendered, so it must
	// ride along out of band.
	InjectedIfaces map[string][]string `json:"injected_ifaces,omitempty"`
	// Report is the partial report at the stage boundary (utility metrics
	// are recomputed at the end of the run and may be zero here).
	Report *Report `json:"report"`
}

// stageRank orders the checkpointable stages; resuming at a stage skips
// every stage of equal or lower rank.
func stageRank(stage string) int {
	switch stage {
	case "topology":
		return 1
	case "equivalence":
		return 2
	case "anonymity":
		return 3
	default:
		return 0
	}
}

// countingSource wraps a rand.Source64 and counts draws. Both Int63 and
// Uint64 of the standard source advance the underlying generator by exactly
// one step, so the count is a complete description of the stream position:
// fast-forwarding a fresh seeded source by n draws reproduces the stream a
// previous process left off at.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// skip advances the source by n draws without using the values.
func (s *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.n += n
}

// injectedIfaces collects the Injected interface marks of a network for a
// checkpoint.
func injectedIfaces(n *config.Network) map[string][]string {
	out := make(map[string][]string)
	for _, name := range n.Names() {
		d := n.Device(name)
		var ifs []string
		for _, i := range d.Interfaces {
			if i.Injected {
				ifs = append(ifs, i.Name)
			}
		}
		if len(ifs) > 0 {
			sort.Strings(ifs)
			out[name] = ifs
		}
	}
	return out
}

// restoreInjected re-applies Injected marks onto a network parsed back from
// a checkpoint (the renderer intentionally omits them so that shared output
// carries no artifact markers).
func restoreInjected(n *config.Network, marks map[string][]string) {
	for name, ifs := range marks {
		d := n.Device(name)
		if d == nil {
			continue
		}
		for _, ifname := range ifs {
			if i := d.Interface(ifname); i != nil {
				i.Injected = true
			}
		}
	}
}

// cloneReportForCheckpoint copies the resumable report fields. Timing is
// carried so a resumed run's report still accounts for pre-crash stage
// time; the line-accounting fields are recomputed at the end of every run.
func cloneReportForCheckpoint(rep *Report) *Report {
	c := *rep
	c.FakeEdges = append([]topology.Edge(nil), rep.FakeEdges...)
	c.FakeHosts = append([]string(nil), rep.FakeHosts...)
	c.FakeRouters = append([]string(nil), rep.FakeRouters...)
	return &c
}

// emitCheckpoint snapshots the pipeline at a completed stage boundary and
// hands it to the Checkpoint callback. The snapshot is self-contained: the
// callback may serialize it, persist it, or drop it at will.
func (o Options) emitCheckpoint(stage string, out *config.Network, src *countingSource, rep *Report) {
	if o.Checkpoint == nil {
		return
	}
	o.Checkpoint(&StageCheckpoint{
		Stage:          stage,
		Configs:        out.Render(),
		RNGDraws:       src.n,
		InjectedIfaces: injectedIfaces(out),
		Report:         cloneReportForCheckpoint(rep),
	})
}

// resumeState rebuilds the pipeline's working state from a checkpoint:
// the intermediate network, a prefix pool whose allocation cursor matches
// the interrupted run, and the partial report.
func resumeState(cp *StageCheckpoint, src *countingSource) (*config.Network, *netaddr.Pool, *Report, error) {
	if stageRank(cp.Stage) == 0 {
		return nil, nil, nil, fmt.Errorf("anonymize: checkpoint has unknown stage %q", cp.Stage)
	}
	out, err := config.ParseNetwork(cp.Configs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("anonymize: parse checkpoint configs: %w", err)
	}
	restoreInjected(out, cp.InjectedIfaces)
	pool := netaddr.NewPool(out.UsedPrefixes(), nil)
	src.skip(cp.RNGDraws)
	rep := &Report{}
	if cp.Report != nil {
		rep = cloneReportForCheckpoint(cp.Report)
	}
	return out, pool, rep, nil
}
