package sim

import (
	"fmt"
	"testing"

	"confmask/internal/netgen"
)

// These tests drive the engine across the maxTracePaths boundary, which
// the catalog and randomized networks never reach. A chain of k 2-way
// ECMP diamonds has 2^k paths end to end, so k = 8 lands exactly on the
// cap and k = 9 is cut in half. The crafted variants rewire FIBs so that
// the cap cuts a walk inside a child whose Delivered paths all fall past
// the cut (or, for contrast, before it), with and without a forwarding
// loop ahead of the cut.

// addDiamonds adds k 2-way diamonds named <p>0 → {<p>a<i>, <p>b<i>} →
// <p><i+1> and returns the joint names <p>0 … <p>k.
func addDiamonds(b *netgen.Builder, p string, k int) []string {
	joints := make([]string, k+1)
	for i := range joints {
		joints[i] = fmt.Sprintf("%s%d", p, i)
		b.Router(joints[i])
	}
	for i := 0; i < k; i++ {
		for _, side := range []string{"a", "b"} {
			mid := fmt.Sprintf("%s%s%d", p, side, i)
			b.Router(mid)
			b.Link(joints[i], mid)
			b.Link(mid, joints[i+1])
		}
	}
	return joints
}

// rewire replaces every listed device's route toward dst with the given
// next hops, in order; an empty list deletes the route (a black hole).
func rewire(t *testing.T, s *Snapshot, dst string, nhs map[string][]string) {
	t.Helper()
	pfx := s.Net.HostPrefix[dst]
	for dev, next := range nhs {
		if _, ok := s.Device(dev); !ok {
			t.Fatalf("rewire: %s has no FIB", dev)
		}
		if len(next) == 0 {
			setRoute(s, dev, pfx, nil)
			continue
		}
		rt := &Route{Prefix: pfx, Source: SrcStatic}
		for _, d := range next {
			rt.NextHops = append(rt.NextHops, hopTo(s, d, "eth0"))
		}
		setRoute(s, dev, pfx, rt)
	}
}

// rewireDiamonds routes a diamond chain toward dst joint by joint; the
// last joint forwards to last (nil: black hole).
func rewireDiamonds(nhs map[string][]string, p string, joints []string, last []string) {
	for i, j := range joints[:len(joints)-1] {
		a, b := fmt.Sprintf("%sa%d", p, i), fmt.Sprintf("%sb%d", p, i)
		nhs[j] = []string{a, b}
		nhs[a] = []string{joints[i+1]}
		nhs[b] = []string{joints[i+1]}
	}
	nhs[joints[len(joints)-1]] = last
}

// capCase is one cap-boundary network plus what the trace from hs toward
// hd must look like, so the test proves it reaches the boundary at all.
type capCase struct {
	name      string
	snap      *Snapshot
	failures  []Failure
	wantPaths int
	wantDeliv bool
}

// diamondCase is the plain OSPF diamond chain hs—d0 … dk—hd.
func diamondCase(t *testing.T, k int) capCase {
	b := netgen.NewBuilder(netgen.OSPF)
	joints := addDiamonds(b, "d", k)
	b.Host("hs", joints[0])
	b.Host("hd", joints[k])
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 << k
	if want > maxTracePaths {
		want = maxTracePaths
	}
	return capCase{
		name:      fmt.Sprintf("diamonds-%d", 1<<k),
		snap:      snap,
		failures:  []Failure{{Node: "da0"}, {LinkA: "d1", LinkB: "da1"}},
		wantPaths: want,
		wantDeliv: true,
	}
}

// truncatedCase routes hs → S toward hd through S → [L?] p0 T and
// T → p0 q0 (late) or q0 p0 (early). The p chain (7 diamonds, 128
// paths) black-holes; the q chain (128 paths) delivers. S admits all of
// p0 and then cuts T in the middle, so with late ordering every Delivered
// path through T falls past the cap. L forwards straight back to S, so
// the walk from S emits a Looped path first and the cut moves one path
// earlier.
func truncatedCase(t *testing.T, late, loop bool) capCase {
	b := netgen.NewBuilder(netgen.OSPF)
	b.Router("S")
	b.Router("T")
	b.Router("L")
	p := addDiamonds(b, "p", 7)
	q := addDiamonds(b, "q", 7)
	b.Link("S", "T")
	b.Link("S", "L")
	b.Link("S", p[0])
	b.Link("T", p[0])
	b.Link("T", q[0])
	b.Host("hs", "S")
	b.Host("hd", q[7])
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := SimulateOpts(cfg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	nhs := map[string][]string{"L": {"S"}, "S": {p[0], "T"}, "T": {p[0], q[0]}}
	if !late {
		nhs["T"] = []string{q[0], p[0]}
	}
	if loop {
		nhs["S"] = []string{"L", p[0], "T"}
	}
	rewireDiamonds(nhs, "p", p, nil)
	rewireDiamonds(nhs, "q", q, []string{"hd"})
	rewire(t, snap, "hd", nhs)
	name := "truncated"
	if late {
		name += "-late"
	} else {
		name += "-early"
	}
	if loop {
		name += "-loopy"
	}
	return capCase{
		name:      name,
		snap:      snap,
		failures:  []Failure{{Node: "pa0"}, {LinkA: "T", LinkB: q[0]}},
		wantPaths: maxTracePaths,
		wantDeliv: !late,
	}
}

// TestCapBoundaryMatchesNaive compares every engine entry point against
// its oracle on the cap-boundary networks, from every device toward every
// host: DeliveredFrom (queried before any trace is cached) against the
// uncapped reachNaive, and PairDigestsFor, full extraction, TraceFrom,
// and TraceUnderFailure under one node and one link failure against the
// reference walker. In the truncated-late cases the cap cuts every
// Delivered path out of the listings from S, T and L, yet all three
// still reach hd.
func TestCapBoundaryMatchesNaive(t *testing.T) {
	cases := []capCase{diamondCase(t, 8), diamondCase(t, 9)}
	for _, late := range []bool{true, false} {
		for _, loop := range []bool{false, true} {
			cases = append(cases, truncatedCase(t, late, loop))
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap := c.snap
			hosts := snap.Hosts()
			devs := snap.Devices()
			probe := snap.traceNaive("hs", "hd", Failure{})
			if len(probe) != c.wantPaths || wantDelivered(probe) != c.wantDeliv {
				t.Fatalf("hs->hd: %d paths, delivered=%v; want %d, %v",
					len(probe), wantDelivered(probe), c.wantPaths, c.wantDeliv)
			}
			for _, dst := range hosts {
				got := snap.DeliveredFrom(dst, devs)
				for i, dev := range devs {
					if want := snap.reachNaive(dev, dst); got[i] != want {
						t.Fatalf("DeliveredFrom(%s)[%s] = %v, want %v", dst, dev, got[i], want)
					}
				}
			}
			if !c.wantDeliv {
				cut := []string{"hs", "S", "T", "L"}
				for i, v := range snap.DeliveredFrom("hd", cut) {
					if !v {
						t.Fatalf("DeliveredFrom(hd)[%s] = false past the cap cut, want true", cut[i])
					}
				}
			}
			pd := snap.PairDigestsFor(hosts)
			for _, src := range hosts {
				for _, dst := range hosts {
					if src == dst {
						continue
					}
					want := digestOfBytes([]byte(pathSetKey(snap.traceNaive(src, dst, Failure{}))))
					if got, _ := pd.Digest(src, dst); got != want {
						t.Fatalf("PairDigestsFor %s->%s = %x, want %x", src, dst, got, want)
					}
				}
			}
			assertDataPlaneMatchesNaive(t, snap, hosts)
			for _, dev := range devs {
				for _, dst := range hosts {
					if got, want := snap.TraceFrom(dev, dst), snap.traceNaive(dev, dst, Failure{}); !samePaths(got, want) {
						t.Fatalf("TraceFrom(%s, %s)\n got: %v\nwant: %v", dev, dst, got, want)
					}
					for _, f := range c.failures {
						if got, want := snap.TraceUnderFailure(dev, dst, f), snap.traceNaive(dev, dst, f); !samePaths(got, want) {
							t.Fatalf("TraceUnderFailure(%s, %s, %v)\n got: %v\nwant: %v", dev, dst, f, got, want)
						}
					}
				}
			}
		})
	}
}
