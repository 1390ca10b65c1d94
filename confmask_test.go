package confmask

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func exampleConfigs(t *testing.T, name string) map[string]string {
	t.Helper()
	configs, err := GenerateExample(name)
	if err != nil {
		t.Fatalf("GenerateExample(%s): %v", name, err)
	}
	return configs
}

func TestAnonymizeEndToEnd(t *testing.T) {
	configs := exampleConfigs(t, "Enterprise")
	opts := DefaultOptions()
	opts.Seed = 5
	anon, rep, err := Anonymize(configs, opts)
	if err != nil {
		t.Fatalf("Anonymize: %v", err)
	}
	if err := Verify(configs, anon); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(rep.FakeHosts) != 8 { // k_H−1 per host, 8 hosts
		t.Fatalf("fake hosts = %d", len(rep.FakeHosts))
	}
	if rep.UC <= 0 || rep.UC >= 1 {
		t.Fatalf("U_C = %v", rep.UC)
	}
	if rep.LinesTotal <= rep.LinesAdded {
		t.Fatalf("line accounting wrong: %+v", rep)
	}
	info, err := Inspect(anon)
	if err != nil {
		t.Fatal(err)
	}
	if info.MinSameDegree < opts.KR {
		t.Fatalf("k_d = %d < %d", info.MinSameDegree, opts.KR)
	}
}

func TestAnonymizeBadStrategy(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	opts := DefaultOptions()
	opts.Strategy = "nonsense"
	if _, _, err := Anonymize(configs, opts); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestAnonymizeBadNoiseP(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	for _, p := range []float64{1.5, -0.5, math.NaN()} {
		opts := DefaultOptions()
		opts.NoiseP = p
		if _, _, err := Anonymize(configs, opts); err == nil {
			t.Fatalf("NoiseP %v: expected error", p)
		}
	}
}

func TestAnonymizeBadConfigs(t *testing.T) {
	if _, _, err := Anonymize(map[string]string{"x": "interface Y\n"}, DefaultOptions()); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestVerifyDetectsDifference(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	broken := map[string]string{}
	for k, v := range configs {
		broken[k] = v
	}
	// Raise an OSPF cost on a transit link: forwarding changes.
	for name, text := range broken {
		if strings.Contains(text, "router ospf") && strings.Contains(text, "to-r2") {
			broken[name] = strings.Replace(text, "interface GigabitEthernet1/0/0\n", "interface GigabitEthernet1/0/0\n ip ospf cost 200\n", 1)
			_ = name
			break
		}
	}
	if err := Verify(configs, broken); err == nil {
		t.Skip("cost change did not alter forwarding on this topology")
	}
}

func TestVerifyMissingHost(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	partial := map[string]string{}
	for k, v := range configs {
		if k != "h1" {
			partial[k] = v
		}
	}
	if err := Verify(configs, partial); err == nil {
		t.Fatal("expected error when a host disappears")
	}
}

func TestTraceAPI(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	paths, ok, err := Trace(configs, "h1", "h9")
	if err != nil || !ok {
		t.Fatalf("Trace: %v ok=%v", err, ok)
	}
	if len(paths) == 0 || paths[0][0] != "h1" {
		t.Fatalf("paths = %v", paths)
	}
	if _, _, err := Trace(configs, "h1", "nope"); err == nil {
		t.Fatal("expected error for unknown host")
	}
	if _, _, err := Trace(configs, "nope", "h1"); err == nil {
		t.Fatal("expected error for unknown src device")
	}
}

func TestApplyPIIAPI(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	anon, names, err := ApplyPII(configs, []byte("key"))
	if err != nil {
		t.Fatal(err)
	}
	if len(anon) != len(configs) || len(names) != len(configs) {
		t.Fatalf("size mismatch: %d %d", len(anon), len(names))
	}
	for _, text := range anon {
		if strings.Contains(text, "hostname r1\n") {
			t.Fatal("original hostname leaked")
		}
	}
}

func TestMineAndCompareSpecs(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	specs, err := MineSpecs(configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("no specs mined")
	}
	opts := DefaultOptions()
	opts.Seed = 3
	anon, _, err := Anonymize(configs, opts)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareSpecs(configs, anon)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.KeptFraction != 1 {
		t.Fatalf("ConfMask must keep every spec; kept %v (missing %v)", cmp.KeptFraction, cmp.Missing)
	}
	if len(cmp.Introduced) > 0 && cmp.IntroducedFakeFraction < 0.9 {
		t.Fatalf("introduced specs should overwhelmingly reference fake hosts: %v", cmp.IntroducedFakeFraction)
	}
}

func TestExampleNetworksAndGenerate(t *testing.T) {
	names := ExampleNetworks()
	if len(names) != 8 {
		t.Fatalf("networks = %v", names)
	}
	if _, err := GenerateExample("B"); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateExample("unknown"); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadWriteConfigDir(t *testing.T) {
	dir := t.TempDir()
	configs := exampleConfigs(t, "Backbone")
	if err := WriteConfigDir(filepath.Join(dir, "out"), configs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfigDir(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(configs) {
		t.Fatalf("read %d files, wrote %d", len(got), len(configs))
	}
	// Files parse back into the same network.
	if err := Verify(configs, got); err != nil {
		t.Fatalf("round-tripped configs not equivalent: %v", err)
	}
	if _, err := ReadConfigDir(filepath.Join(dir, "empty")); err == nil {
		t.Fatal("expected error for missing dir")
	}
	empty := filepath.Join(dir, "emptydir")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadConfigDir(empty); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestReadConfigDirSkipsNonConfigs(t *testing.T) {
	dir := t.TempDir()
	configs := exampleConfigs(t, "Backbone")
	if err := WriteConfigDir(dir, configs); err != nil {
		t.Fatal(err)
	}
	// A nested folder (with a config-looking file inside), a backup copy
	// of a real config, and a hidden file must all be ignored.
	sub := filepath.Join(dir, "archive")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		filepath.Join(sub, "old-r1.cfg"),
		filepath.Join(dir, "r1.cfg.bak"),
		filepath.Join(dir, ".DS_Store"),
		filepath.Join(dir, "r2.cfg~"),
	} {
		if err := os.WriteFile(f, []byte("hostname duplicate\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadConfigDir(dir)
	if err != nil {
		t.Fatalf("ReadConfigDir: %v", err)
	}
	if len(got) != len(configs) {
		t.Fatalf("read %d files, want the %d real configs", len(got), len(configs))
	}
	for name := range got {
		if strings.HasSuffix(name, ".bak") || strings.HasSuffix(name, "~") || strings.HasPrefix(name, ".") {
			t.Fatalf("non-config %q was read", name)
		}
	}
	// The junk must not change what the bundle parses into.
	if err := Verify(configs, got); err != nil {
		t.Fatalf("bundle with junk files not equivalent: %v", err)
	}
}

func TestAnonymizeContextCancelAndProgress(t *testing.T) {
	configs := exampleConfigs(t, "Enterprise")
	opts := DefaultOptions()
	opts.Seed = 5

	// A pre-cancelled context stops the pipeline before any work.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := AnonymizeContext(cancelled, configs, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}

	// A full run reports stages in pipeline order, ending with render.
	var stages []string
	var equivIters int
	opts.Progress = func(stage string, iteration int) {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
		}
		if stage == StageEquivalence && iteration > equivIters {
			equivIters = iteration
		}
	}
	anon, rep, err := AnonymizeContext(context.Background(), configs, opts)
	if err != nil {
		t.Fatalf("AnonymizeContext: %v", err)
	}
	want := []string{StagePreprocess, StageTopology, StageEquivalence, StageAnonymity, StageRender}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	if equivIters != rep.Iterations {
		t.Fatalf("progress saw %d equivalence iterations, report says %d", equivIters, rep.Iterations)
	}

	// Context plumbing must not change the output: same seed, same result.
	opts.Progress = nil
	direct, _, err := Anonymize(configs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(anon) {
		t.Fatalf("context run produced %d configs, direct run %d", len(anon), len(direct))
	}
	for name, text := range direct {
		if anon[name] != text {
			t.Fatalf("config %s differs between context and direct runs", name)
		}
	}
}

func TestRoutesAPI(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	routes, err := Routes(configs, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("empty FIB")
	}
	sources := map[string]bool{}
	for _, r := range routes {
		if len(r.NextHops) == 0 {
			t.Fatalf("route %s has no next hops", r.Prefix)
		}
		sources[r.Source] = true
	}
	// A BGP+OSPF border router must hold connected, OSPF, and BGP routes.
	for _, want := range []string{"connected", "ospf"} {
		if !sources[want] {
			t.Errorf("missing %s routes (got %v)", want, sources)
		}
	}
	if !sources["ebgp"] && !sources["ibgp"] {
		t.Errorf("missing BGP routes (got %v)", sources)
	}
	if _, err := Routes(configs, "nope"); err == nil {
		t.Fatal("unknown router accepted")
	}
}

func TestAuditAPI(t *testing.T) {
	configs := exampleConfigs(t, "Backbone")
	opts := DefaultOptions()
	opts.KR = 4
	opts.Seed = 6
	anon, _, err := Anonymize(configs, opts)
	if err != nil {
		t.Fatal(err)
	}
	md, safe, err := Audit(configs, anon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !safe {
		t.Fatalf("ConfMask output should audit safe:\n%s", md)
	}
	if !strings.Contains(md, "SAFE TO SHARE") {
		t.Fatal("verdict missing from audit markdown")
	}
	// An un-anonymized bundle audits as equivalent but with k_d likely
	// below k_R → not necessarily unsafe; instead audit a tampered one.
	broken := map[string]string{}
	for k, v := range anon {
		broken[k] = strings.ReplaceAll(v, "deny", "permit")
	}
	_, safe2, err := Audit(configs, broken, opts)
	if err != nil {
		t.Fatal(err)
	}
	if safe2 {
		t.Fatal("bundle with disabled filters must not audit safe")
	}
}

func TestInspectAPI(t *testing.T) {
	configs := exampleConfigs(t, "University")
	info, err := Inspect(configs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Routers != 13 || info.Hosts != 8 || info.Links != 25 {
		t.Fatalf("info = %+v", info)
	}
	if strings.Join(info.Protocols, ",") != "bgp,ospf" {
		t.Fatalf("protocols = %v", info.Protocols)
	}
}
