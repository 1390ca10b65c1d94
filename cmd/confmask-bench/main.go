// Command confmask-bench regenerates every table and figure of the
// ConfMask paper's evaluation (§7) on the synthetic evaluation networks
// and prints them in the same shape the paper reports.
//
// Usage:
//
//	confmask-bench [-seed N] [-full] [-only table2,fig5,...]
//
// -full includes the slowest strawman-2 runs (Bics, USCarrier); without it
// those rows print as "skipped". The "dataplane" experiment additionally
// writes its measurements as JSON (-dataplane-out, default
// BENCH_dataplane.json), the "query" experiment — the
// attacker-vs-verifier benchmark — writes -query-out (default
// BENCH_query.json), and the "incremental" experiment — full run vs
// checkpoint-seeded resubmission of a one-router edit — writes
// -incremental-out (default BENCH_incremental.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"confmask/internal/experiments"
	"confmask/internal/version"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed for all anonymization runs")
	full := flag.Bool("full", false, "include the slowest strawman-2 runs")
	only := flag.String("only", "", "comma-separated experiment list (default: all)")
	parallelism := flag.Int("parallelism", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	dataplaneOut := flag.String("dataplane-out", "BENCH_dataplane.json", "file the dataplane experiment writes its measurements to (empty = don't write)")
	queryOut := flag.String("query-out", "BENCH_query.json", "file the query experiment writes its measurements to (empty = don't write)")
	incrementalOut := flag.String("incremental-out", "BENCH_incremental.json", "file the incremental experiment writes its measurements to (empty = don't write)")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "file the scale experiment writes its measurements to (empty = don't write)")
	scaleSmoke := flag.Bool("scale-smoke", false, "restrict the scale experiment to FatTree08 (CI smoke budget)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("confmask-bench", version.String())
		return
	}

	r := experiments.NewRunner(*seed)
	r.Full = *full
	r.Parallelism = *parallelism

	wanted := map[string]bool{}
	if *only != "" {
		for _, e := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(strings.ToLower(e))] = true
		}
	}
	want := func(name string) bool { return len(wanted) == 0 || wanted[name] }

	start := time.Now()
	if want("table2") {
		must(printTable2(r))
	}
	if want("fig5") {
		must(printFig5(r))
	}
	if want("fig6") {
		must(printFig6(r))
	}
	if want("fig7") {
		must(printFig7(r))
	}
	if want("fig8") {
		must(printFig8(r))
	}
	if want("fig9") {
		must(printFig9(r))
	}
	if want("fig10") {
		must(printFig10(r))
	}
	if want("fig11") || want("fig13") {
		must(printFig1113(r))
	}
	if want("fig12") || want("fig14") {
		must(printFig1214(r))
	}
	if want("fig15") {
		must(printFig15(r))
	}
	if want("fig16") {
		must(printFig16(r))
	}
	if want("table3") {
		must(printTable3(r))
	}
	if want("security") {
		must(printSecurity(r))
	}
	if want("dataplane") {
		must(printDataPlane(r, *dataplaneOut))
	}
	if want("query") {
		must(printQuery(r, *queryOut))
	}
	if want("incremental") {
		must(printIncremental(r, *incrementalOut))
	}
	if want("scale") && (len(wanted) > 0 || *scaleSmoke) {
		// The full scale experiment takes minutes (it now climbs through
		// the thousand-router S3/S4 networks), so a default all-experiments
		// run only includes it in smoke form; ask for `-only scale` to
		// measure the large networks.
		must(printScale(r, *scaleOut, *scaleSmoke))
	}
	fmt.Printf("\ntotal harness time: %v\n", time.Since(start).Round(time.Millisecond))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "confmask-bench:", err)
		os.Exit(1)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func printTable2(r *experiments.Runner) error {
	rows, err := r.Table2()
	if err != nil {
		return err
	}
	header("Table 2: evaluation networks")
	fmt.Printf("%-3s %-11s %4s %4s %4s %13s %s\n", "ID", "Network", "|R|", "|H|", "|E|", "#config lines", "Type")
	for _, row := range rows {
		fmt.Printf("%-3s %-11s %4d %4d %4d %13d %s\n", row.ID, row.Name, row.Routers, row.Hosts, row.Links, row.ConfigLines, row.Type)
	}
	return nil
}

func printFig5(r *experiments.Runner) error {
	rows, err := r.Figure5()
	if err != nil {
		return err
	}
	header("Figure 5: route anonymity N_r between edge routers (k_R=6, k_H=2)")
	fmt.Printf("%-11s %9s %9s %9s %9s\n", "Network", "orig-min", "orig-avg", "anon-min", "anon-avg")
	sum := 0.0
	for _, row := range rows {
		fmt.Printf("%-11s %9d %9.2f %9d %9.2f\n", row.Net, row.OrigMin, row.OrigAvg, row.AnonMin, row.AnonAvg)
		sum += row.AnonAvg
	}
	fmt.Printf("average anonymized N_r: %.2f (paper: ~1.93)\n", sum/float64(len(rows)))
	return nil
}

func printFig6(r *experiments.Runner) error {
	rows, err := r.Figure6()
	if err != nil {
		return err
	}
	header("Figure 6: min #routers sharing a degree (k_R=6, k_H=2)")
	fmt.Printf("%-11s %6s %6s %6s\n", "Network", "orig", "anon", "k_R")
	for _, row := range rows {
		ok := ""
		if row.Anon < row.KR {
			ok = "  VIOLATION"
		}
		fmt.Printf("%-11s %6d %6d %6d%s\n", row.Net, row.Orig, row.Anon, row.KR, ok)
	}
	return nil
}

func printFig7(r *experiments.Runner) error {
	rows, err := r.Figure7()
	if err != nil {
		return err
	}
	header("Figure 7: clustering coefficient (k_R=6, k_H=2)")
	fmt.Printf("%-11s %8s %8s %8s\n", "Network", "orig", "anon", "|Δ|")
	sum := 0.0
	for _, row := range rows {
		d := row.Anon - row.Orig
		if d < 0 {
			d = -d
		}
		sum += d
		fmt.Printf("%-11s %8.3f %8.3f %8.3f\n", row.Net, row.Orig, row.Anon, d)
	}
	fmt.Printf("average |Δ|: %.3f (paper: ~0.075)\n", sum/float64(len(rows)))
	return nil
}

func printFig8(r *experiments.Runner) error {
	rows, err := r.Figure8()
	if err != nil {
		return err
	}
	header("Figure 8: proportion of exactly kept host-to-host paths")
	fmt.Printf("%-11s %9s %9s\n", "Network", "ConfMask", "NetHide")
	for _, row := range rows {
		fmt.Printf("%-11s %8.1f%% %8.1f%%\n", row.Net, 100*row.ConfMask, 100*row.NetHide)
	}
	fmt.Println("(paper: ConfMask 100% by SFE; NetHide <30%, avg ~15%)")
	return nil
}

func printFig9(r *experiments.Runner) error {
	rows, err := r.Figure9()
	if err != nil {
		return err
	}
	header("Figure 9: preserved network specifications (k_R=6, k_H=4)")
	fmt.Printf("%-11s %8s %8s %9s %9s %9s\n", "Network", "kept-CM", "kept-NH", "intro-CM", "intro-NH", "fake-CM")
	var kc, kn, ic, in, fc float64
	for _, row := range rows {
		fmt.Printf("%-11s %7.1f%% %7.1f%% %8.2fx %8.2fx %8.1f%%\n",
			row.Net, 100*row.KeptCM, 100*row.KeptNH, row.IntroCM, row.IntroNH, 100*row.FakeFracCM)
		kc += row.KeptCM
		kn += row.KeptNH
		ic += row.IntroCM
		in += row.IntroNH
		fc += row.FakeFracCM
	}
	n := float64(len(rows))
	_ = in
	fmt.Printf("averages: kept CM %.1f%% vs NH %.1f%% (paper 91.3%% vs 65.2%%); CM introduces %.2fx the original specs (paper 3.55x); fake %.1f%% (paper 96.9%%)\n",
		100*kc/n, 100*kn/n, ic/n, 100*fc/n)
	return nil
}

func printFig10(r *experiments.Runner) error {
	rows, err := r.Figure10()
	if err != nil {
		return err
	}
	header("Figure 10: anonymity and utility vs strawmen (k_R=6, k_H=2)")
	fmt.Printf("%-11s %8s %8s %8s %8s %8s %8s\n", "Network", "Nr-CM", "Nr-S1", "Nr-S2", "UC-CM", "UC-S1", "UC-S2")
	for _, row := range rows {
		s2nr, s2uc := fmt.Sprintf("%8.2f", row.NrS2), fmt.Sprintf("%8.3f", row.UCS2)
		if row.Skipped {
			s2nr, s2uc = " skipped", " skipped"
		}
		fmt.Printf("%-11s %8.2f %8.2f %s %8.3f %8.3f %s\n", row.Net, row.NrCM, row.NrS1, s2nr, row.UCCM, row.UCS1, s2uc)
	}
	fmt.Println("(paper: avg N_r 1.98/1.83/1.81; S1 injects ~21% more lines, S2 ~13% fewer)")
	return nil
}

func printFig1113(r *experiments.Runner) error {
	rows, err := r.Figure11()
	if err != nil {
		return err
	}
	header("Figures 11 & 13: impact of k_R on N_r and U_C (k_H=2)")
	fmt.Printf("%-11s %4s %8s %8s\n", "Network", "k_R", "N_r", "U_C")
	for _, row := range rows {
		fmt.Printf("%-11s %4d %8.2f %8.3f\n", row.Net, row.KR, row.Nr, row.UC)
	}
	return nil
}

func printFig1214(r *experiments.Runner) error {
	rows, err := r.Figure12()
	if err != nil {
		return err
	}
	header("Figures 12 & 14: impact of k_H on N_r and U_C (k_R=6)")
	fmt.Printf("%-11s %4s %8s %8s\n", "Network", "k_H", "N_r", "U_C")
	for _, row := range rows {
		fmt.Printf("%-11s %4d %8.2f %8.3f\n", row.Net, row.KH, row.Nr, row.UC)
	}
	return nil
}

func printFig15(r *experiments.Runner) error {
	res, err := r.Figure15()
	if err != nil {
		return err
	}
	header("Figure 15: route anonymity vs configuration utility")
	fmt.Printf("%d sweep points; Pearson r = %.2f (paper: -0.36)\n", len(res.Points), res.Pearson)
	return nil
}

func printFig16(r *experiments.Runner) error {
	rows, err := r.Figure16()
	if err != nil {
		return err
	}
	header("Figure 16: running time comparison (k_R=6, k_H=2)")
	fmt.Printf("%-11s %12s %12s %12s %18s\n", "Network", "strawman1", "ConfMask", "strawman2", "iters S1/CM/S2")
	for _, row := range rows {
		s2 := row.S2.Round(time.Millisecond).String()
		iters := fmt.Sprintf("%d/%d/%d", row.ItersS1, row.ItersCM, row.ItersS2)
		if row.Skipped {
			s2 = "skipped"
			iters = fmt.Sprintf("%d/%d/-", row.ItersS1, row.ItersCM)
		}
		fmt.Printf("%-11s %12v %12v %12s %18s\n", row.Net,
			row.S1.Round(time.Millisecond), row.CM.Round(time.Millisecond), s2, iters)
	}
	fmt.Println("(paper: S1 fastest, S2 8-100x slower; with Batfish the iteration count IS the cost)")
	return nil
}

func printSecurity(r *experiments.Runner) error {
	rows, err := r.SecurityAnalysis()
	if err != nil {
		return err
	}
	header("Security analysis (extension): de-anonymization attacks vs outputs")
	fmt.Printf("%-11s %10s %10s %8s %8s %10s\n", "Network", "deny-CM", "deny-S1", "SPT-TP", "unconf", "max-reid")
	for _, row := range rows {
		fmt.Printf("%-11s %10d %10d %8d %8d %9.3f\n",
			row.Net, row.DenyPatternCM, row.DenyPatternS1, row.SPTTruePos, row.Unconfigured, row.MaxReidentConfidence)
	}
	fmt.Println("(expected: deny-S1 >> deny-CM; SPT-TP = 0; unconf = 0; max-reid ≤ 1/k_R)")
	return nil
}

func printDataPlane(r *experiments.Runner, out string) error {
	rows, err := r.DataPlaneBench()
	if err != nil {
		return err
	}
	header("Data-plane extraction engine (full seq/par + one dirty fixing round)")
	fmt.Printf("%-11s %5s %6s %9s %9s %11s %11s %6s\n", "Network", "|H|", "pairs", "seq-ms", "par-ms", "full-rnd-ms", "dirty-rnd-ms", "dirty")
	for _, row := range rows {
		fmt.Printf("%-11s %5d %6d %9.2f %9.2f %11.2f %11.2f %6d\n",
			row.Net, row.Hosts, row.Pairs, row.SeqMS, row.ParMS, row.FullRoundMS, row.DirtyRoundMS, row.DirtyDests)
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func printQuery(r *experiments.Runner, out string) error {
	rows, err := r.QueryBench(nil, 0)
	if err != nil {
		return err
	}
	header("Attacker vs verifier: query utility vs re-identification leakage")
	fmt.Printf("%-11s %4s %4s %5s %7s %8s %10s %10s %11s %10s\n",
		"Network", "k_R", "k_H", "p", "queries", "utility", "true-max", "unmatched", "shared-mean", "shared-max")
	for _, row := range rows {
		fmt.Printf("%-11s %4d %4d %5.2f %7d %7.1f%% %10.4f %10d %11.4f %10.4f\n",
			row.Net, row.KR, row.KH, row.NoiseP, row.Queries,
			100*row.Utility, row.ReidentTrueMax, row.ReidentUnmatched,
			row.ReidentSharedMean, row.ReidentSharedMax)
	}
	fmt.Println("(expected: shared-max ≤ 1/k_R at every setting; utility high — SFE preserves real forwarding)")
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func printIncremental(r *experiments.Runner, out string) error {
	rows, err := r.IncrementalBench()
	if err != nil {
		return err
	}
	header("Incremental resubmission: full run vs checkpoint-seeded one-router edit")
	fmt.Printf("%-11s %5s %-12s %10s %10s %9s %-10s %s\n",
		"Network", "|D|", "edited", "full-ms", "incr-ms", "speedup", "reused", "identical")
	for _, row := range rows {
		fmt.Printf("%-11s %5d %-12s %10.1f %10.1f %8.1fx %-10s %v\n",
			row.Net, row.Devices, row.EditedDevice, row.FullMS, row.IncrementalMS,
			row.Speedup, row.ReusedStage, row.ByteIdentical)
	}
	fmt.Println("(expected: ≥10x — the resumed run skips preprocess/topology/equivalence/anonymity and only re-renders)")
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func printTable3(r *experiments.Runner) error {
	rows, err := r.Table3()
	if err != nil {
		return err
	}
	header("Table 3: injected configuration lines by category")
	fmt.Printf("%-11s %4s %4s %10s %8s %10s %8s\n", "Network", "k_R", "k_H", "#protocol", "#filter", "#interface", "#total")
	for _, row := range rows {
		fmt.Printf("%-11s %4d %4d %10d %8d %10d %8d\n",
			row.Net, row.KR, row.KH, row.Protocol, row.Filter, row.Interface, row.TotalLines)
	}
	return nil
}

func printScale(r *experiments.Runner, out string, smoke bool) error {
	rows, err := r.ScaleBench(smoke)
	if err != nil {
		return err
	}
	title := "Thousand-router scale: digest vs full extraction, pipeline stages"
	if smoke {
		title += " (smoke subset)"
	}
	header(title)
	fmt.Printf("%-17s %7s %5s %6s %10s %9s %9s %8s %9s %9s %11s %5s\n",
		"Network", "routers", "|H|", "links", "simulate", "digest", "full", "speedup",
		"dig-heap", "full-heap", "pipeline", "iters")
	for _, row := range rows {
		full, fullHeap, speedup := fmt.Sprintf("%.0fms", row.ExtractFullMS),
			fmt.Sprintf("%.1fM", float64(row.PeakHeapFullBytes)/(1<<20)), "-"
		if row.ExtractFullSkipped {
			full, fullHeap = "skip", "skip"
		} else if row.ExtractDigestMS > 0 {
			speedup = fmt.Sprintf("%.1fx", row.ExtractFullMS/row.ExtractDigestMS)
		}
		fmt.Printf("%-17s %7d %5d %6d %8.0fms %7.0fms %9s %8s %8.1fM %9s %9.0fms %5d\n",
			row.Net, row.Routers, row.Hosts, row.Links,
			row.SimulateMS, row.ExtractDigestMS, full, speedup,
			float64(row.PeakHeapDigestBytes)/(1<<20), fullHeap,
			row.PipelineTotalMS, row.EquivIterations)
	}
	fmt.Println("(expected: digest extraction ≥2x faster and several-times-lower peak heap than full at FatTree16;")
	fmt.Println(" digest working set is bounded by workers × one destination's graph and walk, the output by 16B/pair;")
	fmt.Println(" 'skip' marks the fully materialized strawman withheld above the host cap — see extract_full_skipped)")
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
