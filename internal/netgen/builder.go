// Package netgen constructs the eight evaluation networks of the paper's
// Table 2 and provides a general Builder for assembling Cisco-style
// configuration sets from topology descriptions.
//
// Networks A–C in the paper use real (proprietary) enterprise, university,
// and backbone configurations; D–F are built from Topology Zoo graphs; G–H
// are fat-trees. This package synthesizes all eight at the paper's
// router/host/edge counts — see DESIGN.md for the substitution rationale.
package netgen

import (
	"fmt"
	"net/netip"

	"confmask/internal/config"
	"confmask/internal/netaddr"
	"confmask/internal/netbuild"
)

// Proto selects the routing protocol mix of a generated network.
type Proto int

const (
	// OSPF generates a single-domain OSPF network.
	OSPF Proto = iota
	// RIP generates a single-domain RIP network.
	RIP
	// EIGRP generates a single-domain EIGRP network (AS 100).
	EIGRP
	// BGPOSPF generates a multi-AS network running OSPF inside each AS
	// and BGP between ASes (with an iBGP full mesh per AS).
	BGPOSPF
)

// Builder incrementally assembles a configuration set.
type Builder struct {
	proto Proto
	cfg   *config.Network
	pool  *netaddr.Pool
	err   error
}

// NewBuilder returns a Builder for the given protocol mix.
func NewBuilder(proto Proto) *Builder {
	return &Builder{
		proto: proto,
		cfg:   config.NewNetwork(),
		pool:  netaddr.NewPool(nil, nil),
	}
}

// Router adds a router. For BGPOSPF networks use RouterAS instead.
func (b *Builder) Router(name string) *Builder { return b.RouterAS(name, 0) }

// RouterAS adds a router in the given AS (BGPOSPF networks only; other
// protocols ignore asn).
func (b *Builder) RouterAS(name string, asn int) *Builder {
	if b.err != nil {
		return b
	}
	if b.cfg.Device(name) != nil {
		b.err = fmt.Errorf("netgen: duplicate device %q", name)
		return b
	}
	d := &config.Device{Hostname: name, Kind: config.RouterKind, Extra: routerBoilerplate()}
	switch b.proto {
	case OSPF:
		d.OSPF = &config.IGP{ID: 1, InFilters: map[string]string{}}
	case RIP:
		d.RIP = &config.IGP{InFilters: map[string]string{}}
	case EIGRP:
		d.EIGRP = &config.IGP{ID: 100, InFilters: map[string]string{}}
	case BGPOSPF:
		d.OSPF = &config.IGP{ID: 1, InFilters: map[string]string{}}
		if asn <= 0 {
			b.err = fmt.Errorf("netgen: router %q in BGPOSPF network needs an AS number", name)
			return b
		}
		d.BGP = &config.BGP{ASN: asn}
	}
	b.cfg.Add(d)
	return b
}

// Link connects two routers with a fresh /31 and default costs.
func (b *Builder) Link(a, c string) *Builder { return b.LinkCost(a, c, 0, 0) }

// LinkCost connects two routers with explicit OSPF costs per direction
// (0 keeps the protocol default).
func (b *Builder) LinkCost(a, c string, costA, costC int) *Builder {
	if b.err != nil {
		return b
	}
	_, err := netbuild.AddP2PLink(b.cfg, b.pool, a, c, netbuild.LinkOpts{CostA: costA, CostB: costC})
	if err != nil {
		b.err = err
	}
	return b
}

// Host attaches a host to a router on a fresh /24 LAN; in BGPOSPF networks
// the LAN is also originated into BGP.
func (b *Builder) Host(host, router string) *Builder {
	if b.err != nil {
		return b
	}
	_, err := netbuild.AddHostLAN(b.cfg, b.pool, host, router, netbuild.HostOpts{
		AdvertiseBGP: b.proto == BGPOSPF,
	})
	if err != nil {
		b.err = err
	}
	return b
}

// routerBoilerplate returns the management configuration every generated
// router carries. Real enterprise configurations are dominated by such
// lines (AAA, logging, SNMP, VTY, QoS defaults); including them keeps the
// generated networks' per-device line counts near the paper's Table 2 and
// exercises the requirement that anonymization passes unknown lines
// through untouched.
func routerBoilerplate() []string {
	return []string{
		"service timestamps debug datetime msec",
		"service timestamps log datetime msec",
		"service password-encryption",
		"no ip domain lookup",
		"ip cef",
		"ip ssh version 2",
		"login block-for 120 attempts 3 within 60",
		"aaa new-model",
		"aaa authentication login default local",
		"aaa authorization exec default local",
		"clock timezone UTC 0 0",
		"ntp server 10.255.255.251",
		"ntp server 10.255.255.252",
		"logging buffered 64000",
		"logging host 10.255.255.250",
		"logging trap informational",
		"snmp-server community netops RO",
		"snmp-server location core-site",
		"snmp-server enable traps config",
		"spanning-tree mode rapid-pvst",
		"line console 0",
		"line vty 0 4",
		"transport input ssh",
		"exec-timeout 10 0",
		"banner motd ^authorized access only^",
		"archive log config",
		"memory free low-watermark processor 65536",
	}
}

// Build finalizes the network (completing the iBGP mesh for BGPOSPF) and
// returns it, or the first construction error.
func (b *Builder) Build() (*config.Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.proto == BGPOSPF {
		netbuild.EnsureIBGPMesh(b.cfg)
	}
	return b.cfg, nil
}

// MustBuild is Build for tests and generators with static inputs.
func (b *Builder) MustBuild() *config.Network {
	cfg, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cfg
}

// HostPrefixOf returns the LAN prefix of a host in a built network.
func HostPrefixOf(cfg *config.Network, host string) (netip.Prefix, bool) {
	d := cfg.Device(host)
	if d == nil || d.Kind != config.HostKind {
		return netip.Prefix{}, false
	}
	for _, i := range d.Interfaces {
		if i.Addr.IsValid() {
			return i.Addr.Masked(), true
		}
	}
	return netip.Prefix{}, false
}
