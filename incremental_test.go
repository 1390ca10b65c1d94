package confmask

import (
	"strings"
	"testing"
)

func incrementalOptions() Options {
	return Options{KR: 4, KH: 2, NoiseP: 0.1, Seed: 42}
}

// editCosmetic appends an unrecognized (passthrough) line to one device's
// config and returns the edited bundle plus the device it touched.
func editCosmetic(t *testing.T, configs map[string]string) (map[string]string, string) {
	t.Helper()
	edited := make(map[string]string, len(configs))
	for k, v := range configs {
		edited[k] = v
	}
	for name := range edited {
		edited[name] += "snmp-server community edited RO\n"
		return edited, name
	}
	t.Fatal("empty bundle")
	return nil, ""
}

func TestImportCheckpointByteIdentity(t *testing.T) {
	configs, err := GenerateExample("Enterprise")
	if err != nil {
		t.Fatal(err)
	}
	o := incrementalOptions()

	var last *Checkpoint
	withCP := o
	withCP.Checkpoint = func(cp *Checkpoint) { last = cp }
	if _, _, err := Anonymize(configs, withCP); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint emitted")
	}
	if last.Stage != "anonymity" {
		t.Fatalf("final checkpoint stage = %q, want anonymity", last.Stage)
	}

	edited, dev := editCosmetic(t, configs)
	cp, touched, err := ImportCheckpoint(last, configs, edited, o)
	if err != nil {
		t.Fatalf("ImportCheckpoint: %v", err)
	}
	if len(touched) != 1 || touched[0] != dev {
		t.Fatalf("edited devices = %v, want [%s]", touched, dev)
	}

	var stagesRun []string
	fast := o
	fast.Resume = cp
	fast.Progress = func(stage string, _ int) { stagesRun = append(stagesRun, stage) }
	fastOut, fastRep, err := Anonymize(edited, fast)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	refOut, refRep, err := Anonymize(edited, o)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	if len(fastOut) != len(refOut) {
		t.Fatalf("device count %d vs %d", len(fastOut), len(refOut))
	}
	for name, want := range refOut {
		if got := fastOut[name]; got != want {
			t.Fatalf("resumed output for %s differs from from-scratch run", name)
		}
	}
	if !strings.Contains(fastOut[dev], "snmp-server community edited RO") {
		t.Fatalf("edit lost from anonymized output of %s", dev)
	}
	if fastRep.UC != refRep.UC || fastRep.LinesTotal != refRep.LinesTotal {
		t.Fatalf("report mismatch: UC %v vs %v, lines %d vs %d",
			fastRep.UC, refRep.UC, fastRep.LinesTotal, refRep.LinesTotal)
	}
	// The resumed run must not have re-simulated: preprocess is skipped
	// when the checkpoint covers every stage that reads the baseline, so
	// the only stage left to visit is render. (Report timings still carry
	// the base run's stage costs — resume semantics — so assert on the
	// stages actually entered, not on the report.)
	if len(stagesRun) != 1 || stagesRun[0] != StageRender {
		t.Fatalf("resumed run entered stages %v, want [render]", stagesRun)
	}
}

func TestImportCheckpointRejectsSemanticEdit(t *testing.T) {
	configs, err := GenerateExample("Enterprise")
	if err != nil {
		t.Fatal(err)
	}
	o := incrementalOptions()
	var last *Checkpoint
	withCP := o
	withCP.Checkpoint = func(cp *Checkpoint) { last = cp }
	if _, _, err := Anonymize(configs, withCP); err != nil {
		t.Fatal(err)
	}

	// A static route is a routing decision, not a cosmetic edit.
	edited := make(map[string]string, len(configs))
	var dev string
	for k, v := range configs {
		edited[k] = v
		if dev == "" {
			dev = k
		}
	}
	edited[dev] += "ip route 203.0.113.0 255.255.255.0 Null0\n"
	if _, _, err := ImportCheckpoint(last, configs, edited, o); err == nil {
		t.Fatal("semantic edit accepted")
	} else if !strings.Contains(err.Error(), "changed semantically") {
		t.Fatalf("unexpected gate: %v", err)
	}

	// k_H > 1 demands the anonymity stage.
	eqCP := *last
	eqCP.Stage = "equivalence"
	if _, _, err := ImportCheckpoint(&eqCP, configs, configs, o); err == nil {
		t.Fatal("equivalence checkpoint accepted for k_H=2")
	}
}
