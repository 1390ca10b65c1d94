package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"confmask/internal/config"
	"confmask/internal/netgen"
)

// fibPins holds the sha256 of fibFingerprint — every device, prefix,
// source, metric and next hop — of a fresh simulation of the eight
// Table 2 networks and MultiRegion10x30. Unlike the identity tests, which
// compare two runs of one build, these values are fixed across commits: a
// change to how any FIB entry is computed, or to which entries a FIB
// read returns, fails here however it alters them.
var fibPins = map[string]string{
	"Enterprise":       "f96091ee49ea76b9ee8669322fb6cafb70c3705fbcaac76ae50c82fe78382fb2",
	"University":       "26c529acdbf36d1b2c7582deb39bb33ef3d61b74a12a5fe1efaeb9cbbfa36c27",
	"Backbone":         "97889a9bd0191cc7b1c2ffefd1df751926d1bdac74b7ca4ef8b2b8ba4cd5f106",
	"Bics":             "db474c6fc56d9f021e7a29a75f387fa1cf185a65675f78426d94bde142fc6b77",
	"Columbus":         "0cd8bfb41c9a751f473f9c42c02676401aaad6a30aa64aec7262a4f0941678d9",
	"USCarrier":        "5a67aa18449779202cd24b3cc6aa79bf4837d30ca3fbc0aef438bd00d0659f59",
	"FatTree04":        "d9f5d89b5eb06714dac4676375de31b889ca05d40686541668b4f59b30f79b9b",
	"FatTree08":        "591c56a4eaefa5ad1126a35a722bc616572dc7383ba5a2cc0e38c9764aaad509",
	"MultiRegion10x30": "87a509280a844b3989d27dc5d0153ed230a8824564fc628fa50c024dc4e7e81e",
}

// TestFIBPins simulates every pinned network at Parallelism 1 and 3 and
// compares each FIB fingerprint's sha256 against the committed value.
// MultiRegion10x30 is skipped under -short.
func TestFIBPins(t *testing.T) {
	specs := append(netgen.Catalog(), netgen.Spec{Name: "MultiRegion10x30", Build: netgen.MultiRegion10x30})
	if len(specs) != len(fibPins) {
		t.Fatalf("pinned %d networks, want %d", len(fibPins), len(specs))
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			if s.Name == "MultiRegion10x30" && testing.Short() {
				t.Skip("scale network")
			}
			want, ok := fibPins[s.Name]
			if !ok {
				t.Fatalf("no pin for %s", s.Name)
			}
			cfg, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				if got := fibPinDigest(t, cfg, workers); got != want {
					t.Errorf("parallelism %d: FIB sha256 %s, pinned %s", workers, got, want)
				}
			}
		})
	}
}

// fibPinDigest simulates cfg afresh and hashes its FIB fingerprint.
func fibPinDigest(t *testing.T, cfg *config.Network, workers int) string {
	t.Helper()
	snap, err := SimulateOpts(cfg, Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fibFingerprint(snap)))
	return hex.EncodeToString(sum[:])
}

// dvFIBPins holds, for seeded RIP, EIGRP and mixed-protocol networks
// (see dvPinNet), the sha256 of the FIB fingerprint before and after
// dvPinEdits. No catalog network runs a distance-vector protocol, so
// these are the committed values that cover RIP and EIGRP routes.
var dvFIBPins = []struct {
	name string
	seed int64
	fib  [2]string
}{
	{"rip", 2501, [2]string{
		"56acd4ef95e8198c2aa24aaab2e6dca86164299264eda45f5d77c791a487391e",
		"3b68b1947bb41dd15ed3780bb5106b512d2d99f68f92d9890557750ab2e50a16",
	}},
	{"rip-chain", 2501, [2]string{
		"68b664e5b22ebfb357b462c6ea9ed3077d1c1960a294fa27e0747b211f374ea7",
		"d12798eedd2ac397a131ad90d07c6650acd03af305710caef94b4a910a78f368",
	}},
	{"eigrp", 2501, [2]string{
		"fa89a8e67df2c2d9bdcde5817a8c6b472dc0c56c6d3f7f45734c3f6e74abc1c0",
		"ce0bc8f5eabc4b8aa8fa154bab53eb5a9b090e8e5a192acb12bbaf982ae97e63",
	}},
	{"eigrp-two-as", 2501, [2]string{
		"0028ca9b884e1a01363aec30a53719e0b8549e8f1994c4673d863870514ac6f1",
		"54300a1e54e7664c9c87fd1ec81740b41c631d40dbbe089be2602c88b737bb6b",
	}},
	{"mixed", 2524, [2]string{
		"9c8fc21d4244456a6cd45d5c7f5a3747a1664c1a780c2e43c8b02a6e74e494f9",
		"d7b990b724999ae93fe58d4718e1a227fd3e73251b7dd1225e336479ad93cba5",
	}},
}

// dvPinNet builds the named distance-vector pin network from seed.
// rip-chain is a line longer than RIP's 15-hop reach; eigrp sets
// non-default interface delays; eigrp-two-as moves a third of its routers
// to a second EIGRP AS, which does not peer with the first; mixed runs
// RIP everywhere, with EIGRP (AD 90) and OSPF (AD 110) processes over
// every interface on some routers, so each protocol wins somewhere and a
// deny can hand a prefix from one to another.
func dvPinNet(t *testing.T, name string, seed int64) *config.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "rip":
		return randomSimNet(t, netgen.RIP, rng)
	case "rip-chain":
		b := netgen.NewBuilder(netgen.RIP)
		for i := 0; i < 18; i++ {
			b.Router(fmt.Sprintf("r%02d", i))
			if i > 0 {
				b.Link(fmt.Sprintf("r%02d", i-1), fmt.Sprintf("r%02d", i))
			}
		}
		b.Host("h0", "r00").Host("h1", "r08").Host("h2", "r17")
		cfg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	case "eigrp":
		cfg := randomSimNet(t, netgen.EIGRP, rng)
		for _, r := range cfg.Routers() {
			for _, i := range cfg.Device(r).Interfaces {
				if rng.Intn(2) == 0 {
					i.Delay = 10 * (1 + rng.Intn(5))
				}
			}
		}
		return cfg
	}
	// The other networks add or change processes through the text form.
	var cfg *config.Network
	extra := func() string { return "" }
	switch name {
	case "eigrp-two-as":
		cfg = randomSimNet(t, netgen.EIGRP, rng)
	case "mixed":
		cfg = randomSimNet(t, netgen.RIP, rng)
		extra = func() string {
			var s string
			if rng.Intn(2) == 0 {
				s += "router eigrp 7\n network 0.0.0.0/0\n!\n"
			}
			if rng.Intn(2) == 0 {
				s += "router ospf 1\n network 0.0.0.0/0\n!\n"
			}
			return s
		}
	default:
		t.Fatalf("no pin network %s", name)
	}
	for _, r := range cfg.Routers() {
		text := cfg.Device(r).Render() + extra()
		if name == "eigrp-two-as" && rng.Intn(3) == 0 {
			text = strings.Replace(text, "router eigrp 100", "router eigrp 200", 1)
		}
		d, err := config.ParseDevice(text)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Add(d)
	}
	return cfg
}

// dvPinEdits adds twelve exact denies, drawn from a fixed seed, to
// inbound distribute-lists of the network's IGP processes.
func dvPinEdits(cfg *config.Network) {
	rng := rand.New(rand.NewSource(2502))
	ed := newFilterEditor(cfg, rng)
	for i := 0; i < 12; i++ {
		pt := ed.points[rng.Intn(len(ed.points))]
		p := ed.prefixes[rng.Intn(len(ed.prefixes))]
		cfg.Device(pt.dev).EnsurePrefixList(ed.ensureList(pt)).Deny(p)
	}
}

// TestDistanceVectorFIBPins simulates every distance-vector pin network
// at Parallelism 1 and 3, applies dvPinEdits and simulates again, both
// afresh and as a delta over the first simulation's Net, and compares
// each FIB fingerprint's sha256 against the committed values.
func TestDistanceVectorFIBPins(t *testing.T) {
	for _, pin := range dvFIBPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := dvPinNet(t, pin.name, pin.seed)
			for _, workers := range []int{1, 3} {
				if got := fibPinDigest(t, cfg, workers); got != pin.fib[0] {
					t.Errorf("parallelism %d: FIB sha256 %s, pinned %s", workers, got, pin.fib[0])
				}
			}
			view, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			SimulateNet(view)
			dvPinEdits(cfg)
			view.InvalidateFilters()
			for _, workers := range []int{1, 3} {
				if got := fibPinDigest(t, cfg, workers); got != pin.fib[1] {
					t.Errorf("edited, parallelism %d: FIB sha256 %s, pinned %s", workers, got, pin.fib[1])
				}
			}
			sum := sha256.Sum256([]byte(fibFingerprint(SimulateNet(view))))
			if got := hex.EncodeToString(sum[:]); got != pin.fib[1] {
				t.Errorf("edited, delta: FIB sha256 %s, pinned %s", got, pin.fib[1])
			}
		})
	}
}
