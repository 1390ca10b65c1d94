package anonymize

import (
	"fmt"
	"net/netip"

	"confmask/internal/config"
	"confmask/internal/netaddr"
)

// ApplyPII is the PII add-on stage of the workflow (Fig. 3 "other add-on
// steps", §9): prefix-preserving anonymization of every IP address
// (Crypto-PAn style, keyed), plus hostname substitution. ConfMask treats
// this as a downstream plug-in after topology and route anonymization; the
// rewrite is purely syntactic, so topology and routing behavior — already
// anonymized by the main pipeline — are preserved exactly (addresses that
// shared a prefix still share one).
//
// It returns a fresh network plus the hostname substitution map
// (old → new), which the data owner keeps private.
func ApplyPII(cfg *config.Network, key []byte) (*config.Network, map[string]string) {
	an := netaddr.NewAnonymizer(key)
	names := make(map[string]string, len(cfg.Devices))
	ri, hi := 0, 0
	for _, name := range cfg.Names() {
		if cfg.Device(name).Kind == config.HostKind {
			hi++
			names[name] = fmt.Sprintf("host-%02d", hi)
		} else {
			ri++
			names[name] = fmt.Sprintf("router-%02d", ri)
		}
	}

	out := config.NewNetwork()
	for _, name := range cfg.Names() {
		d := cfg.Device(name).Clone()
		d.Hostname = names[name]
		for _, i := range d.Interfaces {
			if i.Addr.IsValid() {
				// Prefix preservation means interfaces sharing a subnet
				// keep sharing the (anonymized) subnet, so links survive.
				i.Addr = netip.PrefixFrom(an.Addr(i.Addr.Addr()), i.Addr.Bits())
			}
			if peer, ok := cutPrefix(i.Description, "to-"); ok {
				if nn, known := names[peer]; known {
					i.Description = "to-" + nn
				}
			}
		}
		for _, g := range d.IGPs() {
			for k := range g.Networks {
				g.Networks[k] = an.Prefix(g.Networks[k])
			}
		}
		if d.BGP != nil {
			if d.BGP.RouterID.IsValid() {
				d.BGP.RouterID = an.Addr(d.BGP.RouterID)
			}
			for k := range d.BGP.Networks {
				d.BGP.Networks[k] = an.Prefix(d.BGP.Networks[k])
			}
			for _, nb := range d.BGP.Neighbors {
				nb.Addr = an.Addr(nb.Addr)
			}
		}
		for _, pl := range d.PrefixLists {
			for k := range pl.Rules {
				if pl.Rules[k].Prefix.Bits() > 0 {
					pl.Rules[k].Prefix = an.Prefix(pl.Rules[k].Prefix)
				}
			}
		}
		for k := range d.Statics {
			if d.Statics[k].Prefix.Bits() > 0 {
				d.Statics[k].Prefix = an.Prefix(d.Statics[k].Prefix)
			}
			d.Statics[k].NextHop = an.Addr(d.Statics[k].NextHop)
		}
		out.Add(d)
	}
	return out, names
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}
