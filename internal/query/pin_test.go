package query

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"confmask/internal/anonymize"
	"confmask/internal/config"
	"confmask/internal/netgen"
	"confmask/internal/sim"
)

// answerPins holds the sha256 of the JSON-encoded []Result that pinBatch's
// batch gets from an engine over the original network and from one over
// its anonymized output (DefaultOptions, seed 1), both with the original
// as baseline and both built by FromConfigs from rendered text, as the
// daemon builds them. These values are fixed across commits: a change to
// how listings are walked, cached or compared that alters any answer of
// any pinned batch fails here.
var answerPins = map[string][2]string{
	"Enterprise": {
		"c752014ca90f6733fef02baf202cee867f7e614fb1d8bd5a8bcff6fb90139c88",
		"a9f61affd3cdb8af1d248976e5589da0650127b1ced5546df4ffcaf11896a6bc",
	},
	"University": {
		"7a934be034af168c17eb6b9f3f27bdf8198447799e9602615649c2fbcf801544",
		"526ba81489a4df9ef28532869aaf712fe759ca13c5893fca562a4eafee30d78a",
	},
	"Backbone": {
		"f2206fb711d2382b4cc6597ac5bf8ce984b167b2d95e71acc4d9af7088486742",
		"0a72ad1be75a2dc171e64b8af833f275ef808b993e92a836726ffe2f48c4bbd3",
	},
	"Bics": {
		"6e15346161467bba3f15bfa48345cf1a87d3f6579fa943b534ed8085923f1005",
		"47fa60cd9f1c2e911094b0c24b11789c7bde4c288d61d218ba992556e4e6791b",
	},
	"Columbus": {
		"894a8c2eff23b236ccb47f166d9c70d0e317a1b031186c1868ebccc67bfcdb0d",
		"7f03195c6486cfe09a0ab014be63f30a173af9ab3720957703221d9db7004d8f",
	},
	"USCarrier": {
		"a45123e5e238811b9fe22f25034ef7f83c314614cbbbfa5f0319b916d830f6b0",
		"a5d50054bd8b3ed87d32d1b99883491c787a0399eb4c2137e8a752c894450ed0",
	},
	"FatTree04": {
		"17c43f4b96c8ce45baae02f21816ebcbc7db3744bf1a9240e5b67b153a821dcc",
		"432a9c757e1664c454e6408c140c25996a66f4441609d9ab51038076d91fb47f",
	},
	"FatTree08": {
		"7236235316d7b9c75e31f17578aa989a5340c6a4d894512d6f397007be0a001c",
		"2bb5acf0d27e65e5cf89dcc2b51e346abfd00024c6eeef27aeae230ce36070e6",
	},
	"MultiRegion10x30": {
		"8dde94888ecbc1fbb0f9414aee1e9320d82547d255007481b4abcd2deaf6fd4e",
		"3b06dafe0b37fad76181a3ea7c0637f7bf3da0506b31aaf6ebec9a467937bea5",
	},
}

// pinBatch draws n queries toward orig's hosts, cycling through all five
// kinds: sources are mostly orig's hosts and now and then any device of
// snap; vias, failed nodes and failed links are drawn from snap's devices
// and links, or from a path orig lists for the pair, so that waypoints
// hold and failures change paths often enough. Then come malformed
// queries: unknown devices, a destination that is no host, and failures
// that are garbled, empty, doubly specified or name unknown devices.
func pinBatch(orig, snap *sim.Snapshot, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	hosts := orig.Hosts()
	devices := snap.Devices()
	links := snap.Net.Links
	kinds := []Kind{Reachability, Waypoint, Isolation, PathDiff, WhatIf}
	qs := make([]Query, 0, n+12)
	for i := 0; i < n; i++ {
		q := Query{
			ID:   fmt.Sprintf("p%03d", i),
			Kind: kinds[i%len(kinds)],
			Src:  hosts[rng.Intn(len(hosts))],
			Dst:  hosts[rng.Intn(len(hosts))],
		}
		if rng.Intn(6) == 0 {
			q.Src = devices[rng.Intn(len(devices))]
		}
		ps := orig.TraceFrom(q.Src, q.Dst)
		hops := ps[rng.Intn(len(ps))].Hops
		switch q.Kind {
		case Waypoint:
			q.Via = devices[rng.Intn(len(devices))]
			if rng.Intn(2) == 0 {
				q.Via = hops[rng.Intn(len(hops))]
			}
		case WhatIf:
			switch k := rng.Intn(8); {
			case k == 0:
				q.FailNode = q.Dst
			case k < 3:
				q.FailNode = devices[rng.Intn(len(devices))]
			case k < 5 || len(hops) < 2:
				l := links[rng.Intn(len(links))]
				q.FailLink = l.A.Device + "<->" + l.B.Device
			case k < 6:
				q.FailNode = hops[rng.Intn(len(hops))]
			default:
				i := rng.Intn(len(hops) - 1)
				q.FailLink = hops[i] + "<->" + hops[i+1]
			}
		}
		qs = append(qs, q)
	}
	h0, h1 := hosts[0], hosts[len(hosts)-1]
	r0 := devices[0]
	return append(qs,
		Query{Kind: Reachability, Src: "no-such-device", Dst: h1},
		Query{Kind: Reachability, Src: h0, Dst: "no-such-host"},
		Query{Kind: Isolation, Src: h0, Dst: r0},
		Query{Kind: Waypoint, Src: h0, Dst: h1},
		Query{Kind: Waypoint, Src: h0, Dst: h1, Via: "no-such-device"},
		Query{Kind: WhatIf, Src: h0, Dst: h1, FailNode: "no-such-device"},
		Query{Kind: WhatIf, Src: h0, Dst: h1, FailLink: "garbled"},
		Query{Kind: WhatIf, Src: h0, Dst: h1, FailLink: h0 + "<->" + h0},
		Query{Kind: WhatIf, Src: h0, Dst: h1, FailNode: h0, FailLink: h0 + "<->" + h1},
		Query{Kind: WhatIf, Src: h0, Dst: h1},
		Query{Kind: "bogus", Src: h0, Dst: h1},
		Query{Src: h0, Dst: h1},
	)
}

// answerDigest runs qs on e twice and returns the sha256 of the first
// run's JSON-encoded results; the second run, answered from the listing
// caches the first one filled, must encode the same bytes.
func answerDigest(t *testing.T, e *Engine, qs []Query) string {
	t.Helper()
	var runs [2][]byte
	for i := range runs {
		buf, err := json.Marshal(e.Run(context.Background(), qs))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = buf
	}
	if string(runs[0]) != string(runs[1]) {
		t.Fatal("a batch answered from warm caches differs from its first answers")
	}
	sum := sha256.Sum256(runs[0])
	return hex.EncodeToString(sum[:])
}

// TestQueryAnswerPins answers pinBatch's batch over the eight catalog
// networks and MultiRegion10x30, original and anonymized at seed 1, and
// compares the digests of the answers with the committed values.
func TestQueryAnswerPins(t *testing.T) {
	for name, want := range answerPins {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := netgen.ByID(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			configs := cfg.Render()
			net, err := config.ParseNetwork(configs)
			if err != nil {
				t.Fatal(err)
			}
			opts := anonymize.DefaultOptions()
			opts.Seed = 1
			out, _, err := anonymize.Run(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			orig, err := FromConfigs(configs, 0)
			if err != nil {
				t.Fatal(err)
			}
			anon, err := FromConfigs(out.Render(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, snap := range []*sim.Snapshot{orig, anon} {
				e := New(snap, Options{Baseline: orig})
				got := answerDigest(t, e, pinBatch(orig, snap, 250, 23))
				if got != want[i] {
					t.Errorf("%s: answers sha256 %s, pinned %s", []string{"original", "anonymized"}[i], got, want[i])
				}
			}
		})
	}
}
