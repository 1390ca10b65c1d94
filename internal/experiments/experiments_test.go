package experiments

import (
	"testing"

	"confmask/internal/netgen"
)

// testRunner restricts the catalog to two small networks (one BGP+OSPF,
// one OSPF fat-tree) so the whole experiment suite runs in seconds.
func testRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(1)
	a, err := netgen.ByID("A")
	if err != nil {
		t.Fatal(err)
	}
	g, err := netgen.ByID("G")
	if err != nil {
		t.Fatal(err)
	}
	r.Nets = []netgen.Spec{a, g}
	return r
}

func TestTable2(t *testing.T) {
	rows, err := testRunner(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Routers != 10 || rows[0].Hosts != 8 || rows[0].Links != 26 {
		t.Fatalf("Enterprise row wrong: %+v", rows[0])
	}
	if rows[0].ConfigLines <= 0 {
		t.Fatal("missing line count")
	}
}

func TestFigure5RouteAnonymityGrows(t *testing.T) {
	rows, err := testRunner(t).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.AnonAvg < row.OrigAvg {
			t.Errorf("%s: anonymization reduced N_r: %v < %v", row.Net, row.AnonAvg, row.OrigAvg)
		}
		if row.AnonMin < 1 {
			t.Errorf("%s: anon min N_r = %d", row.Net, row.AnonMin)
		}
	}
}

func TestFigure6AnonymityGuarantee(t *testing.T) {
	rows, err := testRunner(t).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Anon < row.KR {
			t.Errorf("%s: k_d=%d < k_R=%d", row.Net, row.Anon, row.KR)
		}
	}
}

func TestFigure7Bounds(t *testing.T) {
	rows, err := testRunner(t).Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Orig < 0 || row.Orig > 1 || row.Anon < 0 || row.Anon > 1 {
			t.Errorf("%s: CC out of range: %+v", row.Net, row)
		}
	}
}

func TestFigure8ConfMaskKeepsAllPaths(t *testing.T) {
	rows, err := testRunner(t).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.ConfMask != 1 {
			t.Errorf("%s: ConfMask P_U = %v, want 1 (SFE)", row.Net, row.ConfMask)
		}
		if row.NetHide >= 0.5 {
			t.Errorf("%s: NetHide P_U = %v, expected well below ConfMask", row.Net, row.NetHide)
		}
	}
}

func TestFigure9SpecPreservation(t *testing.T) {
	rows, err := testRunner(t).Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.KeptCM != 1 {
			t.Errorf("%s: ConfMask kept %v of specs, want all", row.Net, row.KeptCM)
		}
		if row.KeptCM <= row.KeptNH {
			t.Errorf("%s: ConfMask (%v) should beat NetHide (%v)", row.Net, row.KeptCM, row.KeptNH)
		}
		if row.FakeFracCM < 0.9 {
			t.Errorf("%s: only %v of introduced specs are fake-host ones", row.Net, row.FakeFracCM)
		}
	}
}

func TestFigure10StrategiesComparable(t *testing.T) {
	rows, err := testRunner(t).Figure10()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		// Strawman 1 filters everything: it can never inject fewer lines
		// than ConfMask (U_C ordering of the paper's Fig. 10 right side).
		if row.UCS1 > row.UCCM+1e-9 {
			t.Errorf("%s: U_C(S1)=%v > U_C(CM)=%v", row.Net, row.UCS1, row.UCCM)
		}
	}
}

func TestSweepAndFigure15(t *testing.T) {
	r := testRunner(t)
	res, err := r.Figure15()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no sweep points")
	}
	if res.Pearson < -1 || res.Pearson > 1 {
		t.Fatalf("Pearson out of range: %v", res.Pearson)
	}
	// Figures 11–14 are filtered views of the same sweep.
	f11, err := r.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f11 {
		if p.KH != 2 {
			t.Fatalf("Figure11 leaked k_H=%d point", p.KH)
		}
	}
	f12, err := r.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f12 {
		if p.KR != 6 {
			t.Fatalf("Figure12 leaked k_R=%d point", p.KR)
		}
	}
}

func TestFigure16Ordering(t *testing.T) {
	rows, err := testRunner(t).Figure16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.CM <= 0 || row.S1 <= 0 || row.S2 <= 0 {
			t.Errorf("%s: non-positive timing: %+v", row.Net, row)
		}
	}
}

func TestTable3(t *testing.T) {
	r := testRunner(t)
	b, err := netgen.ByID("B")
	if err != nil {
		t.Fatal(err)
	}
	r.Nets = append(r.Nets, b)
	rows, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // University × 4 parameter combos
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Protocol < 0 || row.Filter < 0 || row.Interface < 0 {
			t.Errorf("negative added lines: %+v", row)
		}
		if row.TotalLines <= 0 {
			t.Errorf("missing total: %+v", row)
		}
	}
}

func TestSecurityAnalysis(t *testing.T) {
	rows, err := testRunner(t).SecurityAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Unconfigured != 0 {
			t.Errorf("%s: ConfMask output has unconfigured fake interfaces", row.Net)
		}
		if row.SPTTruePos != 0 {
			t.Errorf("%s: SPT attack identified ConfMask fake links", row.Net)
		}
		if row.MaxReidentConfidence > 1.0/6+1e-9 {
			t.Errorf("%s: re-identification confidence %v exceeds 1/k_R", row.Net, row.MaxReidentConfidence)
		}
		if row.DenyPatternS1 < row.DenyPatternCM {
			t.Errorf("%s: strawman1 (%d) should expose at least as much deny pattern as ConfMask (%d)",
				row.Net, row.DenyPatternS1, row.DenyPatternCM)
		}
	}
	// Enterprise gains fake links, so strawman 1's unified lists must be
	// strictly more detectable there.
	if rows[0].Net != "Enterprise" || rows[0].DenyPatternS1 <= rows[0].DenyPatternCM {
		t.Errorf("Enterprise: S1=%d CM=%d, want strict exposure gap", rows[0].DenyPatternS1, rows[0].DenyPatternCM)
	}
}

func TestRunCaching(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Figure5(); err != nil {
		t.Fatal(err)
	}
	n := len(r.runs)
	if _, err := r.Figure6(); err != nil { // same parameters → cached
		t.Fatal(err)
	}
	if len(r.runs) != n {
		t.Fatalf("Figure6 re-ran cached pipelines: %d → %d", n, len(r.runs))
	}
}
