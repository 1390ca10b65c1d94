package config

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Render returns the device configuration as Cisco-IOS-style text. The
// output is deterministic: stanzas appear in a fixed order and collections
// are sorted, so rendering the same model twice yields identical text and
// line-count diffs are meaningful.
func (d *Device) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname %s\n", d.Hostname)
	if d.Kind == HostKind {
		b.WriteString("! device: host\n")
	}
	b.WriteString("!\n")

	for _, i := range d.Interfaces {
		fmt.Fprintf(&b, "interface %s\n", i.Name)
		if i.Description != "" {
			fmt.Fprintf(&b, " description %s\n", i.Description)
		}
		if i.Addr.IsValid() {
			fmt.Fprintf(&b, " ip address %s %s\n", i.Addr.Addr(), maskString(i.Addr.Bits()))
		}
		if i.OSPFCost > 0 {
			fmt.Fprintf(&b, " ip ospf cost %d\n", i.OSPFCost)
		}
		if i.Delay > 0 {
			fmt.Fprintf(&b, " delay %d\n", i.Delay)
		}
		for _, x := range i.Extra {
			fmt.Fprintf(&b, " %s\n", strings.TrimRight(x, "\n"))
		}
		b.WriteString("!\n")
	}

	for _, g := range d.IGPs() {
		switch g.Proto {
		case ProtoOSPF:
			fmt.Fprintf(&b, "router ospf %d\n", g.ID)
		case ProtoRIP:
			b.WriteString("router rip\n version 2\n")
		case ProtoEIGRP:
			fmt.Fprintf(&b, "router eigrp %d\n", g.ID)
		}
		for _, p := range sortedPrefixes(g.Networks) {
			if g.Proto == ProtoOSPF {
				fmt.Fprintf(&b, " network %s %s area 0\n", p.Masked().Addr(), wildcardString(p.Bits()))
			} else {
				fmt.Fprintf(&b, " network %s\n", p.Masked())
			}
		}
		for _, iface := range sortedKeys(g.InFilters) {
			fmt.Fprintf(&b, " distribute-list prefix %s in %s\n", g.InFilters[iface], iface)
		}
		b.WriteString("!\n")
	}

	if d.BGP != nil {
		fmt.Fprintf(&b, "router bgp %d\n", d.BGP.ASN)
		if d.BGP.RouterID.IsValid() {
			fmt.Fprintf(&b, " bgp router-id %s\n", d.BGP.RouterID)
		}
		for _, p := range sortedPrefixes(d.BGP.Networks) {
			fmt.Fprintf(&b, " network %s mask %s\n", p.Masked().Addr(), maskString(p.Bits()))
		}
		nbrs := append([]*BGPNeighbor(nil), d.BGP.Neighbors...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Addr.Compare(nbrs[j].Addr) < 0 })
		for _, nb := range nbrs {
			fmt.Fprintf(&b, " neighbor %s remote-as %d\n", nb.Addr, nb.RemoteAS)
			if nb.DistributeListIn != "" {
				fmt.Fprintf(&b, " neighbor %s distribute-list %s in\n", nb.Addr, nb.DistributeListIn)
			}
		}
		b.WriteString("!\n")
	}

	for _, pl := range d.PrefixLists {
		for _, r := range pl.Rules {
			action := "permit"
			if r.Deny {
				action = "deny"
			}
			if r.Le > 0 {
				fmt.Fprintf(&b, "ip prefix-list %s seq %d %s %s le %d\n", pl.Name, r.Seq, action, r.Prefix.Masked(), r.Le)
			} else {
				fmt.Fprintf(&b, "ip prefix-list %s seq %d %s %s\n", pl.Name, r.Seq, action, r.Prefix.Masked())
			}
		}
		if len(pl.Rules) > 0 {
			b.WriteString("!\n")
		}
	}

	for _, s := range d.Statics {
		if s.Discard {
			fmt.Fprintf(&b, "ip route %s %s Null0\n", s.Prefix.Masked().Addr(), maskString(s.Prefix.Bits()))
		} else {
			fmt.Fprintf(&b, "ip route %s %s %s\n", s.Prefix.Masked().Addr(), maskString(s.Prefix.Bits()), s.NextHop)
		}
	}
	if len(d.Statics) > 0 {
		b.WriteString("!\n")
	}

	for _, x := range d.Extra {
		fmt.Fprintf(&b, "%s\n", strings.TrimRight(x, "\n"))
	}
	return b.String()
}

// Render returns the whole network as a map from hostname to rendered
// configuration text.
func (n *Network) Render() map[string]string {
	out := make(map[string]string, len(n.Devices))
	for name, d := range n.Devices {
		out[name] = d.Render()
	}
	return out
}

// maskString renders a prefix length as a dotted subnet mask.
func maskString(bits int) string {
	m := maskUint(bits)
	return fmt.Sprintf("%d.%d.%d.%d", byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// wildcardString renders a prefix length as a dotted wildcard (inverse)
// mask, the form OSPF network statements use.
func wildcardString(bits int) string {
	m := ^maskUint(bits)
	return fmt.Sprintf("%d.%d.%d.%d", byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

func maskUint(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return 0xFFFFFFFF
	}
	return ^uint32(0) << (32 - bits)
}

// maskBits converts a dotted mask to a prefix length; ok is false when the
// mask is not contiguous.
func maskBits(mask string) (int, bool) {
	a, err := netip.ParseAddr(mask)
	if err != nil || !a.Is4() {
		return 0, false
	}
	b := a.As4()
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	if v != 0 {
		return 0, false
	}
	return bits, true
}

// wildcardBitsOf converts a dotted wildcard mask to a prefix length.
func wildcardBitsOf(wc string) (int, bool) {
	a, err := netip.ParseAddr(wc)
	if err != nil || !a.Is4() {
		return 0, false
	}
	b := a.As4()
	v := ^(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	bits := 0
	for v&0x80000000 != 0 {
		bits++
		v <<= 1
	}
	if v != 0 {
		return 0, false
	}
	return bits, true
}

func sortedPrefixes(in []netip.Prefix) []netip.Prefix {
	out := append([]netip.Prefix(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr().Compare(out[j].Addr()); c != 0 {
			return c < 0
		}
		return out[i].Bits() < out[j].Bits()
	})
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
