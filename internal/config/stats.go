package config

// Stats counts configuration lines by the categories the paper's Table 3
// reports: interface lines, routing-protocol lines, and filter lines
// (prefix lists plus the distribute-list lines that attach them). Blank
// lines and `!` separators are not counted.
type Stats struct {
	Interface int // interface stanza lines (incl. the `interface` line)
	Protocol  int // router ospf/rip/eigrp/bgp stanza lines except filters
	Filter    int // prefix-list lines and distribute-list attachments
	Other     int // hostname, statics, comments, preserved extras
}

// Total returns the number of counted configuration lines.
func (s Stats) Total() int { return s.Interface + s.Protocol + s.Filter + s.Other }

// Sub returns the per-category difference s − o. With ConfMask's
// add-only guarantee every field of the result is non-negative; the result
// is the Table 3 "added lines" breakdown.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Interface: s.Interface - o.Interface,
		Protocol:  s.Protocol - o.Protocol,
		Filter:    s.Filter - o.Filter,
		Other:     s.Other - o.Other,
	}
}

// Add returns the per-category sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Interface: s.Interface + o.Interface,
		Protocol:  s.Protocol + o.Protocol,
		Filter:    s.Filter + o.Filter,
		Other:     s.Other + o.Other,
	}
}

// LineStats counts the device's rendered configuration lines by category.
// It mirrors Render exactly, so LineStats(d).Total() equals the number of
// non-separator lines in d.Render().
func (d *Device) LineStats() Stats {
	var s Stats
	s.Other++ // hostname
	if d.Kind == HostKind {
		s.Other++ // device marker comment
	}
	for _, i := range d.Interfaces {
		s.Interface++ // interface <name>
		if i.Description != "" {
			s.Interface++
		}
		if i.Addr.IsValid() {
			s.Interface++
		}
		if i.OSPFCost > 0 {
			s.Interface++
		}
		if i.Delay > 0 {
			s.Interface++
		}
		s.Interface += len(i.Extra)
	}
	for _, g := range d.IGPs() {
		s.Protocol++ // router <protocol>
		if g.Proto == ProtoRIP {
			s.Protocol++ // version 2
		}
		s.Protocol += len(g.Networks)
		s.Filter += len(g.InFilters)
	}
	if d.BGP != nil {
		s.Protocol++ // router bgp
		if d.BGP.RouterID.IsValid() {
			s.Protocol++
		}
		s.Protocol += len(d.BGP.Networks)
		for _, nb := range d.BGP.Neighbors {
			s.Protocol++ // neighbor remote-as
			if nb.DistributeListIn != "" {
				s.Filter++
			}
		}
	}
	for _, pl := range d.PrefixLists {
		s.Filter += len(pl.Rules)
	}
	s.Other += len(d.Statics)
	s.Other += len(d.Extra)
	return s
}

// LineStats sums LineStats over every device in the network.
func (n *Network) LineStats() Stats {
	var s Stats
	for _, d := range n.Devices {
		s = s.Add(d.LineStats())
	}
	return s
}

// UtilityUC computes the paper's configuration utility metric
// U_C = 1 − N_l/P_l for an anonymized network relative to the original,
// where N_l is the number of injected lines and P_l the anonymized total.
func UtilityUC(original, anonymized *Network) float64 {
	po := original.LineStats().Total()
	pa := anonymized.LineStats().Total()
	if pa == 0 {
		return 1
	}
	nl := pa - po
	if nl < 0 {
		nl = 0
	}
	return 1 - float64(nl)/float64(pa)
}
