package anonymize

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"confmask/internal/config"
)

// runCollectingCheckpoints runs the pipeline once, capturing every stage
// checkpoint and the final rendered output.
func runCollectingCheckpoints(t *testing.T, cfg *config.Network, opts Options) ([]*StageCheckpoint, map[string]string, *Report) {
	t.Helper()
	var cps []*StageCheckpoint
	opts.Checkpoint = func(cp *StageCheckpoint) { cps = append(cps, cp) }
	out, rep, err := Run(cfg, opts)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	return cps, out.Render(), rep
}

// assertSameRender fails unless the two rendered networks are byte-equal.
func assertSameRender(t *testing.T, want, got map[string]string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d configs, want %d", label, len(got), len(want))
	}
	for name, text := range want {
		if got[name] != text {
			t.Fatalf("%s: config %s differs from uninterrupted run", label, name)
		}
	}
}

// TestCheckpointResumeByteIdentical is the core crash-safety property: for
// every stage checkpoint, a fresh pipeline resumed from it must produce
// output byte-identical to the uninterrupted run — including the stages
// that draw randomness after the resume point. The checkpoint is pushed
// through a JSON round trip first, exactly as the service journal stores
// it.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		net      func(*testing.T) *config.Network
	}{
		{"ospf-confmask", ConfMask, ospfNet},
		{"bgp-confmask", ConfMask, bgpNet},
		{"ospf-strawman1", Strawman1, ospfNet},
		{"ospf-strawman2", Strawman2, ospfNet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.net(t)
			opts := DefaultOptions()
			opts.KR = 3
			opts.KH = 3
			opts.NoiseP = 0.5 // high enough to exercise the repair loop
			opts.Seed = 42
			opts.Strategy = tc.strategy
			cps, want, wantRep := runCollectingCheckpoints(t, cfg, opts)
			if len(cps) != 3 {
				t.Fatalf("got %d checkpoints, want 3 (topology, equivalence, anonymity)", len(cps))
			}
			for _, cp := range cps {
				buf, err := json.Marshal(cp)
				if err != nil {
					t.Fatalf("marshal checkpoint %s: %v", cp.Stage, err)
				}
				var restored StageCheckpoint
				if err := json.Unmarshal(buf, &restored); err != nil {
					t.Fatalf("unmarshal checkpoint %s: %v", cp.Stage, err)
				}
				ropts := opts
				ropts.Resume = &restored
				out, rep, err := Run(cfg, ropts)
				if err != nil {
					t.Fatalf("resume from %s: %v", cp.Stage, err)
				}
				assertSameRender(t, want, out.Render(), "resume from "+cp.Stage)
				if rep.EquivIterations != wantRep.EquivIterations ||
					rep.EquivFilters != wantRep.EquivFilters ||
					rep.AnonFilters != wantRep.AnonFilters ||
					len(rep.FakeHosts) != len(wantRep.FakeHosts) ||
					len(rep.FakeEdges) != len(wantRep.FakeEdges) {
					t.Fatalf("resume from %s: report diverged: %+v vs %+v", cp.Stage, rep, wantRep)
				}
			}
		})
	}
}

// TestCheckpointResumeUsesDirtyRetrace resumes from the equivalence
// checkpoint, which forces Algorithm 2's repair loop — the
// DataPlaneForDirty consumer — to run against a network view rebuilt from
// persisted state. The FilterDiff cache of the interrupted process is gone,
// so the resumed run must re-derive its dirty sets from scratch and still
// converge to byte-identical output.
func TestCheckpointResumeUsesDirtyRetrace(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 3
	opts.KH = 4
	opts.NoiseP = 0.9 // near-certain filter noise: the repair loop must fire
	opts.Seed = 7
	cps, want, _ := runCollectingCheckpoints(t, cfg, opts)
	var equivCP *StageCheckpoint
	for _, cp := range cps {
		if cp.Stage == "equivalence" {
			equivCP = cp
		}
	}
	if equivCP == nil {
		t.Fatal("no equivalence checkpoint")
	}
	ropts := opts
	ropts.Resume = equivCP
	out, rep, err := Run(cfg, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FakeHosts) == 0 {
		t.Fatal("anonymity stage did not run after resume")
	}
	assertSameRender(t, want, out.Render(), "resume before Algorithm 2")
}

// TestCancelMidAlgorithm2 cancels the pipeline while Algorithm 2 runs and
// asserts it returns ctx.Err() with no partial output. The cancel lands in
// the anonymity stage via the progress callback, and the repair loop's
// per-round context check is what must observe it.
func TestCancelMidAlgorithm2(t *testing.T) {
	cfg := ospfNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.KR = 3
	opts.KH = 3
	opts.NoiseP = 0.5
	opts.Seed = 3
	opts.Progress = func(stage string, iter int) {
		if stage == "anonymity" {
			cancel() // pipeline is inside step 2.2 when this returns
		}
	}
	out, rep, err := RunContext(ctx, cfg, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil || rep != nil {
		t.Fatal("cancelled run returned partial output")
	}
}

// TestResumeBadCheckpoint exercises the failure paths: unknown stage and
// unparsable intermediate configs fail cleanly.
func TestResumeBadCheckpoint(t *testing.T) {
	cfg := ospfNet(t)
	opts := DefaultOptions()
	opts.KR = 3
	opts.Resume = &StageCheckpoint{Stage: "wat"}
	if _, _, err := Run(cfg, opts); err == nil {
		t.Fatal("unknown stage accepted")
	}
	opts.Resume = &StageCheckpoint{Stage: "topology", Configs: map[string]string{"x": "interface Y\n"}}
	if _, _, err := Run(cfg, opts); err == nil {
		t.Fatal("garbage checkpoint configs accepted")
	}
}
