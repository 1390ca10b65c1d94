package service

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"confmask"
	"confmask/internal/config"
	"confmask/internal/sim"
)

// TestLegacyCheckpointResume pins compatibility with checkpoint.json files
// written while stage checkpoints still carried the original network's
// pair digests: a "baseline_digests" document of per-destination hex
// columns (the (src, dst) digests of every src in host order, diagonal
// included) over an explicit host list. readCheckpoint ignores the key.
// One column is corrupted, so a resume that still seeded its equivalence
// check from the document would fail; the resume must instead be
// byte-identical to an uninterrupted run.
func TestLegacyCheckpointResume(t *testing.T) {
	req := testRequest(t, 51)
	var topo *confmask.Checkpoint
	withCP := req.Options
	withCP.Checkpoint = func(cp *confmask.Checkpoint) {
		if cp.Stage == "topology" {
			topo = cp
		}
	}
	if _, _, err := confmask.Anonymize(req.Configs, withCP); err != nil {
		t.Fatal(err)
	}
	if topo == nil {
		t.Fatal("no topology checkpoint emitted")
	}

	orig, err := config.ParseNetwork(req.Configs)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sim.Simulate(orig)
	if err != nil {
		t.Fatal(err)
	}
	hosts := orig.Hosts()
	pd := snap.PairDigestsFor(hosts)
	cols := make(map[string]string, len(hosts))
	for _, dst := range hosts {
		var col []byte
		for _, src := range hosts {
			d, _ := pd.Digest(src, dst)
			col = append(col, d[:]...)
		}
		cols[dst] = hex.EncodeToString(col)
	}
	// Flip a nibble of the (hosts[1], hosts[0]) digest, 16 bytes into the
	// column, past the diagonal slot.
	col := []byte(cols[hosts[0]])
	if col[32] == 'f' {
		col[32] = '0'
	} else {
		col[32] = 'f'
	}
	cols[hosts[0]] = string(col)

	buf, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	doc["baseline_digests"] = map[string]any{"hosts": hosts, "cols": cols}
	if buf, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	cp, err := readCheckpoint(dir)
	if err != nil {
		t.Fatalf("read legacy checkpoint: %v", err)
	}
	resumed := req.Options
	resumed.Resume = cp
	got, _, err := confmask.Anonymize(req.Configs, resumed)
	if err != nil {
		t.Fatalf("resume from legacy checkpoint: %v", err)
	}
	want := directRun(t, req)
	if len(got) != len(want) {
		t.Fatalf("resumed run has %d configs, want %d", len(got), len(want))
	}
	for name, text := range want {
		if got[name] != text {
			t.Fatalf("config %s differs from the uninterrupted run", name)
		}
	}
}
