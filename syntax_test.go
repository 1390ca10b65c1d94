package confmask

import (
	"strings"
	"testing"
)

// TestJunosEndToEnd anonymizes a network captured in Junos syntax: the
// pipeline must auto-detect the syntax, preserve the data plane, and emit
// Junos again.
func TestJunosEndToEnd(t *testing.T) {
	ios := exampleConfigs(t, "FatTree04")
	opts := DefaultOptions()
	opts.Seed = 4
	opts.OutputSyntax = "junos"

	// Convert the generated network to Junos first.
	junosIn, _, err := Anonymize(ios, Options{KR: 1, KH: 1, Seed: 1, OutputSyntax: "junos"})
	if err != nil {
		t.Fatalf("identity conversion: %v", err)
	}
	for _, text := range junosIn {
		if !strings.HasPrefix(strings.TrimSpace(text), "set ") {
			t.Fatal("conversion did not emit Junos syntax")
		}
		break
	}
	// The conversion alone must already be functionally equivalent.
	if err := Verify(ios, junosIn); err != nil {
		t.Fatalf("cross-syntax conversion broke the data plane: %v", err)
	}

	// Now anonymize the Junos capture.
	anon, rep, err := Anonymize(junosIn, opts)
	if err != nil {
		t.Fatalf("Anonymize(junos): %v", err)
	}
	if err := Verify(junosIn, anon); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(rep.FakeHosts) == 0 {
		t.Fatal("no fake hosts added")
	}
	info, err := Inspect(anon)
	if err != nil {
		t.Fatal(err)
	}
	if info.MinSameDegree < opts.KR {
		t.Fatalf("k_d = %d", info.MinSameDegree)
	}
}

// TestSyntaxConversionBothWays round-trips IOS → Junos → IOS through the
// public API and checks equivalence at each step.
func TestSyntaxConversionBothWays(t *testing.T) {
	ios := exampleConfigs(t, "Backbone")
	identity := Options{KR: 1, KH: 1, Seed: 1}

	identity.OutputSyntax = "junos"
	junos, _, err := Anonymize(ios, identity)
	if err != nil {
		t.Fatal(err)
	}
	identity.OutputSyntax = "ios"
	back, _, err := Anonymize(junos, identity)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ios, back); err != nil {
		t.Fatalf("IOS→Junos→IOS changed forwarding: %v", err)
	}
	for _, text := range back {
		if !strings.Contains(text, "hostname ") {
			t.Fatal("result is not IOS syntax")
		}
		break
	}
}

// TestMixedSyntaxBundle parses a bundle of one Junos and one IOS file
// many times: the syntax is read off the first file in name order, so
// every call detects Junos and fails on the IOS file with the same error.
func TestMixedSyntaxBundle(t *testing.T) {
	bundle := map[string]string{
		"a.cfg": "set system host-name r1\nset interfaces eth0 unit 0 family inet address 10.0.0.1/24\n",
		"b.cfg": "hostname r2\n!\ninterface eth0\n ip address 10.0.0.2 255.255.255.0\n!\n",
	}
	_, syntax, err := parseAny(bundle)
	if syntax != "junos" || err == nil || !strings.Contains(err.Error(), "b.cfg") {
		t.Fatalf("parseAny = %q, %v; want junos and an error naming b.cfg", syntax, err)
	}
	for i := 0; i < 50; i++ {
		_, s, e := parseAny(bundle)
		if s != syntax || e == nil || e.Error() != err.Error() {
			t.Fatalf("call %d: %q, %v; first call %q, %v", i, s, e, syntax, err)
		}
		if _, e := Inspect(bundle); e == nil || e.Error() != err.Error() {
			t.Fatalf("Inspect call %d: %v; want %v", i, e, err)
		}
	}
}
