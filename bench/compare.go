package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric from the records of a workload, in file
// order, from the traced records for per-layer metrics and the untraced
// ones for end-to-end metrics.
func values(recs []record, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict compares a metric's runs on the parent and the change, paired in
// file order. A change improved the metric when it wins at least nine
// tenths of the pairs (ties count for neither side) and the medians differ
// by more than the distance between the parent's quartiles. An end-to-end
// metric regressed when the change's median is worse than the parent's by
// more than the bound; where the parent's own spread is wider than the
// bound the answer is unresolved, unless every run of the change beats
// every run of the parent. Per-layer metrics have no bound and use the
// pairs rule both ways.
func verdict(parent, change []float64, m specMetric) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	moved := math.Abs(cm-pm) > spread
	switch {
	case wins*10 >= pairs*9 && moved && better(cm, pm):
		return "improved", wins, pairs
	case m.Bound == 0:
		if losses*10 >= pairs*9 && moved && better(pm, cm) {
			return "regressed", wins, pairs
		}
		return "unchanged", wins, pairs
	}
	// Every change run beats every parent run when the change's worst run
	// beats the parent's best.
	cs, ps := sorted(change), sorted(parent)
	allBetter := cs[len(cs)-1] < ps[0]
	if m.Better == "higher" {
		allBetter = cs[0] > ps[len(ps)-1]
	}
	if spread > m.Bound*math.Abs(pm) && !allBetter {
		return "unresolved", wins, pairs
	}
	worse := (cm - pm) / math.Abs(pm)
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}

// compareRecords prints one line per workload and metric found in both
// record files: each side's median and quartiles, the pairs the change
// won, and the verdict. It returns 1 when an end-to-end metric regressed.
func compareRecords(w io.Writer, s *spec, parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err == nil {
		var change []record
		change, err = readRecords(changePath)
		if err == nil {
			return printComparison(w, s, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func printComparison(w io.Writer, s *spec, parent, change []record) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-40s %-30s %-30s %-6s %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			for _, m := range s.metrics(traced) {
				p := values(parent, wl.Name, traced, m.Name)
				c := values(change, wl.Name, traced, m.Name)
				if len(p) == 0 || len(c) == 0 {
					continue
				}
				v, wins, pairs := verdict(p, c, m)
				if v == "regressed" && m.Bound > 0 {
					code = 1
				}
				pq1, pq3 := quartiles(p)
				cq1, cq3 := quartiles(c)
				fmt.Fprintf(w, "%-15s %-40s %-30s %-30s %-6s %s\n", wl.Name, m.Name,
					fmt.Sprintf("%.5g [%.5g %.5g]", median(p), pq1, pq3),
					fmt.Sprintf("%.5g [%.5g %.5g]", median(c), cq1, cq3),
					fmt.Sprintf("%d/%d", wins, pairs), v)
			}
		}
	}
	return code
}
