package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// toyWorkloads are the benchmark's workloads on the smallest inputs.
func toyWorkloads() map[string]workloadFunc {
	return map[string]workloadFunc{
		"ft08-anon":      anonWorkload("FatTree04"),
		"mr10-anon":      anonWorkload("Enterprise"),
		"catalog-daemon": catalogWorkload([]string{"Enterprise", "FatTree04"}),
		"ft08-query":     queryWorkload("FatTree04"),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// and checks that each prints every metric BENCHMARK.json lists for its
// mode, with its unit, and that every correctness check passes.
func TestWorkloadsSmoke(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(s.Workloads) != len(workloads()) {
		t.Errorf("spec lists %d workloads, the program has %d", len(s.Workloads), len(workloads()))
	}
	daemonBin := filepath.Join(t.TempDir(), "confmaskd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, "confmask/cmd/confmaskd").CombinedOutput(); err != nil {
		t.Fatalf("build confmaskd: %v\n%s", err, out)
	}
	toys := toyWorkloads()
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || workloads()[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			r := newRun(w.Name, 1, 50*time.Millisecond, traced)
			r.daemonBin, r.maxItems, r.batch = daemonBin, 2, 16
			var out bytes.Buffer
			if err := execute(context.Background(), r, toys[w.Name], t.TempDir(), s, &out, "", ""); err != nil {
				t.Errorf("%s traced=%t: %v", w.Name, traced, err)
				continue
			}
			checkOutput(t, w.Name, s.metrics(traced), out.String())
		}
	}
}

func checkOutput(t *testing.T, workload string, want []specMetric, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]string{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == workload {
			printed[f[1]] = f[3]
		}
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: result has %d metrics, want %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if printed[m.Name] != m.Unit || res.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("%s: metric %s printed with unit %q, result unit %q, want %q", workload, m.Name, printed[m.Name], res.Metrics[m.Name].Unit, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestTypicalMS checks that a catalog's typical latency does not move with
// how many jobs of each network a window happened to finish, as the plain
// median of the mix does.
func TestTypicalMS(t *testing.T) {
	mix := func(fast, slow int) []sample {
		var ss []sample
		for i := 0; i < fast; i++ {
			ss = append(ss, sample{ms: 40, kind: 0})
		}
		for i := 0; i < slow; i++ {
			ss = append(ss, sample{ms: 200, kind: 1})
		}
		return ss
	}
	for _, ss := range [][]sample{mix(5, 5), mix(6, 5), mix(5, 6)} {
		if got := typicalMS(ss); got != 120 {
			t.Errorf("typicalMS of %d samples = %v, want 120", len(ss), got)
		}
	}
	if got := typicalMS([]sample{{ms: 3}, {ms: 1}, {ms: 2}}); got != 2 {
		t.Errorf("typicalMS of one kind = %v, want its median 2", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "item_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		m      specMetric
		want   string
	}{
		{scale(0.8), lower, "improved"},
		{scale(1.05), lower, "unchanged"},
		{scale(1.2), lower, "regressed"},
		{scale(0.8), specMetric{Better: "higher", Bound: 0.1}, "regressed"},
		{scale(1.2), specMetric{Better: "lower"}, "regressed"},
		{scale(1.01), specMetric{Better: "lower"}, "unchanged"},
	} {
		if got, _, _ := verdict(parent, tc.change, tc.m); got != tc.want {
			t.Errorf("verdict(%v, %+v) = %s, want %s", tc.change[0], tc.m, got, tc.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got, _, _ := verdict(noisy, noisy, lower); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}

// TestCompareReadsRecords round-trips records through -compare.
func TestCompareReadsRecords(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			r := newRun("ft08-query", int64(i), time.Second, false)
			r.set("item_p50_ms", p50+float64(i%3))
			if err := appendJSONLine(path, r.record(s)); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out bytes.Buffer
	if code := compareRecords(&out, s, write("a", 100), write("b", 150)); code != 1 {
		t.Errorf("exit code %d, want 1 for a regression", code)
	}
	sc := bufio.NewScanner(&out)
	found := false
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 0 && f[0] == "ft08-query" && f[1] == "item_p50_ms" {
			found = f[len(f)-1] == "regressed"
		}
	}
	if !found {
		t.Errorf("no regressed item_p50_ms line in\n%s", out.String())
	}
}
