package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"confmask/internal/netgen"
)

// wantDelivered is the reference semantics: scan the full trace.
func wantDelivered(ps []Path) bool {
	for _, p := range ps {
		if p.Status == Delivered {
			return true
		}
	}
	return false
}

// TestDeliveredFromMatchesTrace pins DeliveredFrom to reachability
// (reachNaive) from every device on randomized topologies with injected
// loops, black holes, and discard routes. These networks never reach the
// path cap or the depth bound, so it must also equal delivered-status
// membership of the capped trace. Each destination is queried before
// any trace has cached path lists for it and again after TraceFrom ran;
// the answers must not change.
func TestDeliveredFromMatchesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7042))
	for trial := 0; trial < 12; trial++ {
		cfg := randomSimNet(t, netgen.OSPF, rng)
		snap, err := SimulateOpts(cfg, Options{Parallelism: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		hosts := cfg.Hosts()
		routers := cfg.Routers()
		for m := 0; m < 2+rng.Intn(6); m++ {
			r := routers[rng.Intn(len(routers))]
			h := hosts[rng.Intn(len(hosts))]
			pfx := snap.Net.HostPrefix[h]
			switch rng.Intn(4) {
			case 0:
				tgt := routers[rng.Intn(len(routers))]
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcOSPF, NextHops: []NextHop{hopTo(snap, tgt, "eth0")}})
			case 1:
				t1 := routers[rng.Intn(len(routers))]
				t2 := routers[rng.Intn(len(routers))]
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcOSPF, NextHops: snap.tab.sortNextHops([]NextHop{hopTo(snap, t1, "eth0"), hopTo(snap, t2, "Null0")})})
			case 2:
				setRoute(snap, r, pfx, nil)
			case 3:
				setRoute(snap, r, pfx, &Route{Prefix: pfx, Source: SrcStatic, NextHops: []NextHop{hopTo(snap, DiscardDevice, "Null0")}})
			}
		}
		devs := cfg.Names()
		for _, dst := range hosts {
			// No traces have run for this destination yet.
			got := snap.DeliveredFrom(dst, devs)
			for i, dev := range devs {
				if want := snap.reachNaive(dev, dst); got[i] != want {
					t.Fatalf("trial %d: DeliveredFrom(%s)[%s] = %v, want %v (reachNaive)", trial, dst, dev, got[i], want)
				}
				if want := wantDelivered(snap.traceNaive(dev, dst, Failure{})); got[i] != want {
					t.Fatalf("trial %d: DeliveredFrom(%s)[%s] = %v, want %v (capped trace)", trial, dst, dev, got[i], want)
				}
			}
			// Answers must not change once TraceFrom has cached path lists
			// for the destination.
			for _, dev := range devs {
				snap.TraceFrom(dev, dst)
			}
			again := snap.DeliveredFrom(dst, devs)
			for i, dev := range devs {
				if again[i] != got[i] {
					t.Fatalf("trial %d: DeliveredFrom(%s)[%s] changed after trace caching", trial, dst, dev)
				}
			}
		}
		// Unknown destinations answer all-false, like TraceFrom's nil.
		for _, v := range snap.DeliveredFrom("no-such-host", devs) {
			if v {
				t.Fatal("unknown destination reported delivered")
			}
		}
		// A source the network does not configure answers false and
		// leaves the engine's node table as it was.
		e := snap.engineFor(hosts[0])
		nodes := e.size()
		if got := snap.DeliveredFrom(hosts[0], []string{"no-such-device"}); got[0] {
			t.Fatal("unknown source reported delivered")
		}
		if e.size() != nodes {
			t.Fatalf("unknown source grew the node table from %d to %d", nodes, e.size())
		}
	}
}

// TestDeliveredFromDeepChain pins that the depth bound limits only path
// listings: on a chain longer than maxTraceDepth the trace from the far
// end is cut Looped before it delivers, yet DeliveredFrom reports every
// chain position as reaching the host, as reachNaive does.
func TestDeliveredFromDeepChain(t *testing.T) {
	b := netgen.NewBuilder(netgen.OSPF)
	n := maxTraceDepth + 8
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("c%03d", i)
		b.Router(names[i])
	}
	for i := 0; i+1 < n; i++ {
		b.Link(names[i], names[i+1])
	}
	b.Host("h0", names[n-1])
	cfg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wantDelivered(snap.TraceFrom("c000", "h0")) {
		t.Fatal("TraceFrom(c000, h0) holds a Delivered path; the chain does not pass the depth bound")
	}
	got := snap.DeliveredFrom("h0", names)
	for i, dev := range names {
		if !got[i] || !snap.reachNaive(dev, "h0") {
			t.Fatalf("%s: DeliveredFrom = %v, reachNaive = %v; want both true", dev, got[i], snap.reachNaive(dev, "h0"))
		}
	}
}
