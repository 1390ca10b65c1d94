package config

import (
	"fmt"
	"net/netip"
)

// SemanticDiff compares two parsed devices on every field the
// anonymization pipeline and the simulator read, and returns "" when they
// are pipeline-indistinguishable: running the pipeline on a network where
// a replaces b makes exactly the same decisions (same simulations, same
// fake artifacts, same RNG draws) as on one containing b. A non-empty
// return names the first semantic difference found.
//
// The deliberately ignored fields are the ones nothing in the pipeline
// reads: Device.Extra (unrecognized top-level lines), Interface.Extra
// (unrecognized interface lines), and Interface.Description — all free
// text preserved verbatim by the renderer. (anonymize.ApplyPII rewrites
// "to-<peer>" descriptions, but ApplyPII is the data holder's separate
// post-processing stage, never part of the anonymization pipeline whose
// checkpoints this comparison gates.) Injected is pipeline bookkeeping
// that inputs never carry.
//
// Order sensitivity mirrors the renderer, because a checkpoint transplant
// must also reproduce a from-scratch run byte for byte: interfaces,
// prefix lists, and static routes compare positionally (rendered in slice
// order), while protocol network statements and BGP neighbors compare as
// sets (rendered sorted).
func SemanticDiff(a, b *Device) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "device missing"
	}
	if a.Hostname != b.Hostname {
		return fmt.Sprintf("hostname %q vs %q", a.Hostname, b.Hostname)
	}
	if a.Kind != b.Kind {
		return fmt.Sprintf("kind %v vs %v", a.Kind, b.Kind)
	}
	if len(a.Interfaces) != len(b.Interfaces) {
		return fmt.Sprintf("%d vs %d interfaces", len(a.Interfaces), len(b.Interfaces))
	}
	for i, ai := range a.Interfaces {
		bi := b.Interfaces[i]
		switch {
		case ai.Name != bi.Name:
			return fmt.Sprintf("interface %d is %q vs %q (order matters)", i, ai.Name, bi.Name)
		case ai.Addr != bi.Addr:
			return fmt.Sprintf("interface %s: address %v vs %v", ai.Name, ai.Addr, bi.Addr)
		case ai.OSPFCost != bi.OSPFCost:
			return fmt.Sprintf("interface %s: ospf cost %d vs %d", ai.Name, ai.OSPFCost, bi.OSPFCost)
		case ai.Delay != bi.Delay:
			return fmt.Sprintf("interface %s: delay %d vs %d", ai.Name, ai.Delay, bi.Delay)
		}
	}
	for _, p := range Protocols {
		if d := diffIGP(p, a.IGP(p), b.IGP(p)); d != "" {
			return d
		}
	}
	if d := diffBGP(a.BGP, b.BGP); d != "" {
		return d
	}
	if len(a.PrefixLists) != len(b.PrefixLists) {
		return fmt.Sprintf("%d vs %d prefix lists", len(a.PrefixLists), len(b.PrefixLists))
	}
	for i, apl := range a.PrefixLists {
		bpl := b.PrefixLists[i]
		if apl.Name != bpl.Name {
			return fmt.Sprintf("prefix list %d is %q vs %q (order matters)", i, apl.Name, bpl.Name)
		}
		if len(apl.Rules) != len(bpl.Rules) {
			return fmt.Sprintf("prefix list %s: %d vs %d rules", apl.Name, len(apl.Rules), len(bpl.Rules))
		}
		for k, ar := range apl.Rules {
			if ar != bpl.Rules[k] {
				return fmt.Sprintf("prefix list %s: rule %d differs", apl.Name, k)
			}
		}
	}
	if len(a.Statics) != len(b.Statics) {
		return fmt.Sprintf("%d vs %d static routes", len(a.Statics), len(b.Statics))
	}
	for i, as := range a.Statics {
		if as != b.Statics[i] {
			return fmt.Sprintf("static route %d differs (%v vs %v)", i, as.Prefix, b.Statics[i].Prefix)
		}
	}
	return ""
}

func diffIGP(p Protocol, a, b *IGP) string {
	switch {
	case (a == nil) != (b == nil):
		return fmt.Sprintf("%s presence differs", p)
	case a == nil:
		return ""
	case a.ID != b.ID && p == ProtoEIGRP:
		return fmt.Sprintf("eigrp AS %d vs %d", a.ID, b.ID)
	case a.ID != b.ID:
		return fmt.Sprintf("%s process %d vs %d", p, a.ID, b.ID)
	}
	if d := diffPrefixSets(p.String()+" networks", a.Networks, b.Networks); d != "" {
		return d
	}
	return diffFilterMaps(p.String(), a.InFilters, b.InFilters)
}

func diffBGP(a, b *BGP) string {
	switch {
	case (a == nil) != (b == nil):
		return "bgp presence differs"
	case a == nil:
		return ""
	case a.ASN != b.ASN:
		return fmt.Sprintf("bgp AS %d vs %d", a.ASN, b.ASN)
	case a.RouterID != b.RouterID:
		return fmt.Sprintf("bgp router-id %v vs %v", a.RouterID, b.RouterID)
	}
	if d := diffPrefixSets("bgp networks", a.Networks, b.Networks); d != "" {
		return d
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return fmt.Sprintf("bgp: %d vs %d neighbors", len(a.Neighbors), len(b.Neighbors))
	}
	byAddr := make(map[netip.Addr]*BGPNeighbor, len(b.Neighbors))
	for _, nb := range b.Neighbors {
		byAddr[nb.Addr] = nb
	}
	for _, an := range a.Neighbors {
		bn, ok := byAddr[an.Addr]
		if !ok {
			return fmt.Sprintf("bgp neighbor %v only on one side", an.Addr)
		}
		if an.RemoteAS != bn.RemoteAS || an.DistributeListIn != bn.DistributeListIn {
			return fmt.Sprintf("bgp neighbor %v differs", an.Addr)
		}
	}
	return ""
}

func diffPrefixSets(what string, a, b []netip.Prefix) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d entries", what, len(a), len(b))
	}
	set := make(map[netip.Prefix]int, len(a))
	for _, p := range a {
		set[p]++
	}
	for _, p := range b {
		if set[p] == 0 {
			return fmt.Sprintf("%s: %v only on one side", what, p)
		}
		set[p]--
	}
	return ""
}

func diffFilterMaps(proto string, a, b map[string]string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d vs %d distribute-lists", proto, len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Sprintf("%s: distribute-list on %s differs", proto, k)
		}
	}
	return ""
}
