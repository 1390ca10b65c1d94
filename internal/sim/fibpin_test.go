package sim

import (
	"crypto/sha256"
	"encoding/hex"
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
