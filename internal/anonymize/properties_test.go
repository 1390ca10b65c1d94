package anonymize

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"confmask/internal/sim"
)

// TestAppendixBProperties verifies, one by one, the routing utility
// properties that the paper's Appendix B proves follow from functional
// equivalence: reachability, path lengths, black holes, multipath
// consistency, waypointing, and routing loops. The pipeline's DP-equality
// check implies all of them; this test asserts each named property
// directly so a regression pinpoints which one broke.
func TestAppendixBProperties(t *testing.T) {
	cfg := bgpNet(t)
	opts := DefaultOptions()
	opts.KR = 2
	opts.Seed = 77
	anon, _, err := Run(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	so, err := sim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := sim.Simulate(anon)
	if err != nil {
		t.Fatal(err)
	}
	hosts := cfg.Hosts()

	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			op := so.TraceFrom(src, dst)
			ap := sa.TraceFrom(src, dst)

			// (1) Reachability.
			if deliveredAny(so, src, dst) != deliveredAny(sa, src, dst) {
				t.Fatalf("reachability changed for %s→%s", src, dst)
			}
			// (2) Path lengths: the multiset of delivered path lengths.
			if lengths(op) != lengths(ap) {
				t.Fatalf("path lengths changed for %s→%s: %v vs %v", src, dst, lengths(op), lengths(ap))
			}
			// (3) Black holes and (6) routing loops: status multisets.
			if statuses(op) != statuses(ap) {
				t.Fatalf("path statuses changed for %s→%s", src, dst)
			}
			// (4) Multipath consistency: number of delivered paths.
			if len(deliveredOnly(op)) != len(deliveredOnly(ap)) {
				t.Fatalf("multipath fan-out changed for %s→%s", src, dst)
			}
			// (5) Waypointing: the common interior routers.
			if waypoints(deliveredOnly(op)) != waypoints(deliveredOnly(ap)) {
				t.Fatalf("waypoints changed for %s→%s", src, dst)
			}
		}
	}
}

func lengths(ps []sim.Path) string {
	var ls []int
	for _, p := range ps {
		if p.Status == sim.Delivered {
			ls = append(ls, len(p.Hops))
		}
	}
	sort.Ints(ls)
	return fmt.Sprint(ls)
}

// deliveredOnly returns the Delivered paths of a path set.
func deliveredOnly(ps []sim.Path) []sim.Path {
	var out []sim.Path
	for _, p := range ps {
		if p.Status == sim.Delivered {
			out = append(out, p)
		}
	}
	return out
}

func statuses(ps []sim.Path) string {
	var ss []string
	for _, p := range ps {
		ss = append(ss, p.Status.String())
	}
	sort.Strings(ss)
	return strings.Join(ss, ",")
}

func waypoints(ps []sim.Path) string {
	counts := map[string]int{}
	for _, p := range ps {
		seen := map[string]bool{}
		for i := 1; i+1 < len(p.Hops); i++ {
			seen[p.Hops[i]] = true
		}
		for r := range seen {
			counts[r]++
		}
	}
	var common []string
	for r, c := range counts {
		if c == len(ps) {
			common = append(common, r)
		}
	}
	sort.Strings(common)
	return strings.Join(common, ",")
}
