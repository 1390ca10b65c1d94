package confmask

import (
	"fmt"
	"sort"

	"confmask/internal/config"
	"confmask/internal/sim"
)

// ImportCheckpoint adapts a finished base run's checkpoint so it can seed a
// run over an edited copy of the same network. It succeeds only when the
// edit is decision-identical: every device in newConfigs parses to the same
// semantic content as its counterpart in baseConfigs (config.SemanticDiff),
// differing at most in fields the pipeline never reads — free-text
// interface descriptions and unrecognized passthrough lines. For such an
// edit the pipeline would make exactly the same choices (same simulations,
// same fake artifacts, same RNG draws), so the base checkpoint is valid for
// the new input once the cosmetic fields are transplanted into its
// intermediate configs. Resuming from the returned checkpoint then yields
// output byte-identical to a from-scratch run over newConfigs, while
// skipping every stage the checkpoint covers — including preprocessing.
//
// The checkpoint must cover the whole decision-making pipeline for the
// options in o: stage "anonymity", or stage "equivalence" when k_H ≤ 1
// disables route anonymity. Both bundles must be Cisco-IOS-style (the
// checkpoint's intermediate form), and o must not redirect output to
// another syntax.
//
// It returns the adapted checkpoint and the sorted hostnames whose
// cosmetic content changed. The error, when non-nil, names the first gate
// that failed; callers fall back to a full run and can surface the reason.
func ImportCheckpoint(base *Checkpoint, baseConfigs, newConfigs map[string]string, o Options) (*Checkpoint, []string, error) {
	if base == nil || len(base.Configs) == 0 {
		return nil, nil, fmt.Errorf("base job has no checkpoint")
	}
	effKH := o.KH
	if effKH == 0 {
		effKH = DefaultOptions().KH
	}
	switch base.Stage {
	case "anonymity":
	case "equivalence":
		if effKH > 1 {
			return nil, nil, fmt.Errorf("base checkpoint stops at %q but k_H=%d requires the anonymity stage", base.Stage, effKH)
		}
	default:
		return nil, nil, fmt.Errorf("base checkpoint stage %q does not cover the pipeline", base.Stage)
	}
	if o.OutputSyntax != "" && o.OutputSyntax != "ios" {
		return nil, nil, fmt.Errorf("output syntax %q is not the checkpoint's intermediate syntax", o.OutputSyntax)
	}
	for name, text := range baseConfigs {
		if s := config.DetectSyntax(text); s != "ios" {
			return nil, nil, fmt.Errorf("base config %s is %s, not ios", name, s)
		}
	}
	for name, text := range newConfigs {
		if s := config.DetectSyntax(text); s != "ios" {
			return nil, nil, fmt.Errorf("edited config %s is %s, not ios", name, s)
		}
	}
	baseNet, err := config.ParseNetwork(baseConfigs)
	if err != nil {
		return nil, nil, fmt.Errorf("parse base configs: %w", err)
	}
	newNet, err := config.ParseNetwork(newConfigs)
	if err != nil {
		return nil, nil, fmt.Errorf("parse edited configs: %w", err)
	}
	baseNames, newNames := baseNet.Names(), newNet.Names()
	if len(baseNames) != len(newNames) {
		return nil, nil, fmt.Errorf("device set changed: %d vs %d devices", len(baseNames), len(newNames))
	}
	for _, name := range newNames {
		if baseNet.Device(name) == nil {
			return nil, nil, fmt.Errorf("device %s is not in the base job", name)
		}
		if d := config.SemanticDiff(baseNet.Device(name), newNet.Device(name)); d != "" {
			return nil, nil, fmt.Errorf("device %s changed semantically: %s", name, d)
		}
	}

	cpNet, err := config.ParseNetwork(base.Configs)
	if err != nil {
		return nil, nil, fmt.Errorf("parse base checkpoint: %w", err)
	}
	// Transplant the cosmetic fields. Anonymization only ever appends to a
	// device — injected interfaces land after the originals and passthrough
	// lines are untouched — so the first len(newDev.Interfaces) interfaces
	// of the checkpointed device are the originals, in input order.
	baseRender, newRender := baseNet.Render(), newNet.Render()
	var edited []string
	for _, name := range newNames {
		newDev, cpDev := newNet.Device(name), cpNet.Device(name)
		if cpDev == nil {
			return nil, nil, fmt.Errorf("device %s missing from base checkpoint", name)
		}
		if len(cpDev.Interfaces) < len(newDev.Interfaces) {
			return nil, nil, fmt.Errorf("device %s has fewer interfaces in the base checkpoint", name)
		}
		if baseRender[name] != newRender[name] {
			edited = append(edited, name)
		}
		cpDev.Extra = append([]string(nil), newDev.Extra...)
		for i, ni := range newDev.Interfaces {
			cpDev.Interfaces[i].Description = ni.Description
			cpDev.Interfaces[i].Extra = append([]string(nil), ni.Extra...)
		}
	}
	sort.Strings(edited)

	injected := make(map[string][]string, len(base.InjectedIfaces))
	for dev, ifs := range base.InjectedIfaces {
		injected[dev] = append([]string(nil), ifs...)
	}
	return &Checkpoint{
		Stage:          base.Stage,
		Configs:        cpNet.Render(),
		RNGDraws:       base.RNGDraws,
		InjectedIfaces: injected,
		Report:         base.Report,
	}, edited, nil
}

// ClassifyEdit gives a best-effort routing-impact summary of an edit that
// was too semantic for ImportCheckpoint, using the cross-snapshot filter
// diff (sim.DiffNetworks): it reports how many destination prefixes the
// filter changes can disturb, or that the change is structural and affects
// all destinations. It returns "" when either bundle fails to parse or
// build — classification is advisory and never blocks a full run.
func ClassifyEdit(baseConfigs, newConfigs map[string]string) string {
	baseNet, _, err := parseAny(baseConfigs)
	if err != nil {
		return ""
	}
	newNet, _, err := parseAny(newConfigs)
	if err != nil {
		return ""
	}
	d, err := sim.DiffNetworks(baseNet, newNet)
	if err != nil {
		return ""
	}
	switch {
	case d.All():
		return "edit affects all destinations"
	case d.Empty():
		return "edit has no filter-visible routing impact"
	default:
		return fmt.Sprintf("filter changes affect %d destination prefix(es)", len(d.Prefixes()))
	}
}
