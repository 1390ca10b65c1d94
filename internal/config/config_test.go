package config

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRouter() *Device {
	d := &Device{Hostname: "r1", Kind: RouterKind}
	d.Interfaces = append(d.Interfaces,
		&Interface{
			Name:        "GigabitEthernet0/0",
			Addr:        netip.MustParsePrefix("10.0.0.0/31"),
			Description: "to-r2",
			OSPFCost:    5,
		},
		&Interface{
			Name:  "GigabitEthernet0/1",
			Addr:  netip.MustParsePrefix("10.1.0.1/24"),
			Extra: []string{"trust dscp", "qos wrr 1 to 7"},
		},
	)
	d.OSPF = &IGP{
		ID: 1,
		Networks: []netip.Prefix{
			netip.MustParsePrefix("10.0.0.0/31"),
			netip.MustParsePrefix("10.1.0.0/24"),
		},
		InFilters: map[string]string{"GigabitEthernet0/0": "RejPfxs"},
	}
	d.BGP = &BGP{
		ASN:      65001,
		RouterID: netip.MustParseAddr("1.1.1.1"),
		Networks: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")},
		Neighbors: []*BGPNeighbor{
			{Addr: netip.MustParseAddr("10.0.0.1"), RemoteAS: 65002, DistributeListIn: "RejPfxs"},
		},
	}
	pl := d.EnsurePrefixList("RejPfxs")
	pl.Deny(netip.MustParsePrefix("10.9.0.0/24"))
	pl.Rules = append(pl.Rules, PrefixRule{Seq: 100, Deny: false, Prefix: netip.MustParsePrefix("0.0.0.0/0"), Le: 32})
	d.Extra = []string{"banner motd ^internal use only^"}
	return d
}

func sampleHost() *Device {
	return &Device{
		Hostname: "h1",
		Kind:     HostKind,
		Interfaces: []*Interface{
			{Name: "eth0", Addr: netip.MustParsePrefix("10.1.0.2/24")},
		},
		Statics: []StaticRoute{{
			Prefix:  netip.MustParsePrefix("0.0.0.0/0"),
			NextHop: netip.MustParseAddr("10.1.0.1"),
		}},
	}
}

func TestRenderParseRoundTripRouter(t *testing.T) {
	d := sampleRouter()
	text := d.Render()
	got, err := ParseDevice(text)
	if err != nil {
		t.Fatalf("ParseDevice: %v\n%s", err, text)
	}
	if got.Render() != text {
		t.Fatalf("round trip diverged:\n--- first ---\n%s\n--- second ---\n%s", text, got.Render())
	}
}

func TestRenderParseRoundTripHost(t *testing.T) {
	d := sampleHost()
	text := d.Render()
	got, err := ParseDevice(text)
	if err != nil {
		t.Fatalf("ParseDevice: %v", err)
	}
	if got.Kind != HostKind {
		t.Fatalf("host kind lost: %v", got.Kind)
	}
	if got.Render() != text {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", text, got.Render())
	}
}

func TestParsePreservesUnknownLines(t *testing.T) {
	text := "hostname c2\n!\ninterface GigabitEthernet1/0/13\n ip address 10.25.17.25 255.255.255.254\n description to-AGG3-1\n traffic-policy mark_agg31_high_priority inbound\n!\ntraffic classifier is_mgmt_traffic\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatalf("ParseDevice: %v", err)
	}
	i := d.Interface("GigabitEthernet1/0/13")
	if i == nil {
		t.Fatal("interface missing")
	}
	if len(i.Extra) != 1 || !strings.Contains(i.Extra[0], "traffic-policy") {
		t.Fatalf("interface extra lost: %v", i.Extra)
	}
	if len(d.Extra) != 1 || !strings.Contains(d.Extra[0], "traffic classifier") {
		t.Fatalf("device extra lost: %v", d.Extra)
	}
}

func TestParseCIDRInterface(t *testing.T) {
	text := "hostname r9\ninterface Ethernet0/0\n ip address 192.168.3.1/30\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	want := netip.MustParsePrefix("192.168.3.1/30")
	if d.Interfaces[0].Addr != want {
		t.Fatalf("got %v want %v", d.Interfaces[0].Addr, want)
	}
}

func TestParseOSPFWildcardNetwork(t *testing.T) {
	text := "hostname r9\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n network 10.1.0.0/24 area 0\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OSPF.Networks) != 2 {
		t.Fatalf("networks = %v", d.OSPF.Networks)
	}
	if d.OSPF.Networks[0] != netip.MustParsePrefix("10.0.0.0/31") {
		t.Fatalf("wildcard network = %v", d.OSPF.Networks[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"interface X\n",                                                      // no hostname
		"hostname x\nrouter bgp notanumber\n",                                // bad ASN
		"hostname x\nip route 10.0.0.0 bad 1.2.3.4\n",                        // bad mask
		"hostname x\nrouter ospf 1\n network bad\n",                          // bad network
		"hostname x\nrouter bgp 1\n neighbor 1.2.3.4 distribute-list L in\n", // filter before neighbor
	}
	for _, c := range cases {
		if _, err := ParseDevice(c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestParseNetworkDuplicateHostname(t *testing.T) {
	texts := map[string]string{
		"a.cfg": "hostname same\n",
		"b.cfg": "hostname same\n",
	}
	if _, err := ParseNetwork(texts); err == nil {
		t.Fatal("duplicate hostnames must be rejected")
	}
}

func TestLineStatsMatchesRender(t *testing.T) {
	for _, d := range []*Device{sampleRouter(), sampleHost()} {
		want := 0
		for _, line := range strings.Split(d.Render(), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || line == "!" {
				continue
			}
			want++
		}
		if got := d.LineStats().Total(); got != want {
			t.Errorf("%s: LineStats=%d rendered=%d", d.Hostname, got, want)
		}
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Interface: 5, Protocol: 3, Filter: 2, Other: 1}
	b := Stats{Interface: 1, Protocol: 1, Filter: 1, Other: 1}
	if got := a.Sub(b); got != (Stats{4, 2, 1, 0}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := b.Add(b); got != (Stats{2, 2, 2, 2}) {
		t.Fatalf("Add = %+v", got)
	}
}

func TestUtilityUC(t *testing.T) {
	n := NewNetwork()
	n.Add(sampleRouter())
	clone := n.Clone()
	if uc := UtilityUC(n, clone); uc != 1 {
		t.Fatalf("identical networks U_C = %v, want 1", uc)
	}
	// Add 10 filter rules; U_C must drop below 1.
	d := clone.Device("r1")
	pl := d.EnsurePrefixList("More")
	for i := 0; i < 10; i++ {
		pl.Deny(netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 20, byte(i), 0}), 24))
	}
	uc := UtilityUC(n, clone)
	if uc >= 1 || uc <= 0 {
		t.Fatalf("U_C = %v", uc)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sampleRouter()
	c := d.Clone()
	c.Interfaces[0].Description = "changed"
	c.OSPF.InFilters["GigabitEthernet0/9"] = "X"
	c.BGP.Neighbors[0].DistributeListIn = "Y"
	c.PrefixLists[0].Deny(netip.MustParsePrefix("172.31.0.0/24"))
	if d.Interfaces[0].Description == "changed" {
		t.Fatal("interface mutation leaked")
	}
	if _, ok := d.OSPF.InFilters["GigabitEthernet0/9"]; ok {
		t.Fatal("filter map shared")
	}
	if d.BGP.Neighbors[0].DistributeListIn == "Y" {
		t.Fatal("neighbor shared")
	}
	if d.PrefixLists[0].Denies(netip.MustParsePrefix("172.31.0.0/24")) {
		t.Fatal("prefix list shared")
	}
}

func TestPrefixListDenyIdempotent(t *testing.T) {
	pl := &PrefixList{Name: "L"}
	p := netip.MustParsePrefix("10.2.0.0/24")
	pl.Deny(p)
	pl.Deny(p)
	if len(pl.Rules) != 1 {
		t.Fatalf("duplicate deny: %v", pl.Rules)
	}
	if !pl.Denies(p) {
		t.Fatal("Denies false after Deny")
	}
	if !pl.RemoveDeny(p) {
		t.Fatal("RemoveDeny found nothing")
	}
	if pl.Denies(p) {
		t.Fatal("Denies true after RemoveDeny")
	}
	if pl.RemoveDeny(p) {
		t.Fatal("RemoveDeny removed twice")
	}
}

func TestUsedPrefixes(t *testing.T) {
	n := NewNetwork()
	n.Add(sampleRouter())
	n.Add(sampleHost())
	used := n.UsedPrefixes()
	want := map[string]bool{
		"10.0.0.0/31": true, "10.1.0.0/24": true, "10.9.0.0/24": true,
	}
	got := map[string]bool{}
	for _, p := range used {
		got[p.String()] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("missing used prefix %s (got %v)", w, used)
		}
	}
	if got["0.0.0.0/0"] {
		t.Error("default route must not count as a used subnet")
	}
}

func TestNextInterfaceName(t *testing.T) {
	d := sampleRouter()
	n1 := d.NextInterfaceName()
	d.Interfaces = append(d.Interfaces, &Interface{Name: n1})
	n2 := d.NextInterfaceName()
	if n1 == n2 {
		t.Fatalf("NextInterfaceName repeated %q", n1)
	}
}

func TestInterfaceCostDefault(t *testing.T) {
	i := &Interface{}
	if i.Cost() != DefaultOSPFCost {
		t.Fatalf("default cost = %d", i.Cost())
	}
	i.OSPFCost = 3
	if i.Cost() != 3 {
		t.Fatalf("explicit cost = %d", i.Cost())
	}
}

func TestInterfaceByAddr(t *testing.T) {
	d := sampleRouter()
	if d.InterfaceByAddr(netip.MustParseAddr("10.0.0.0")) == nil {
		t.Fatal("lookup by address failed")
	}
	if d.InterfaceByAddr(netip.MustParseAddr("9.9.9.9")) != nil {
		t.Fatal("phantom interface")
	}
}

// Property: mask and wildcard strings round-trip every prefix length.
func TestMaskRoundTrip(t *testing.T) {
	f := func(b uint8) bool {
		bits := int(b % 33)
		m, ok := maskBits(maskString(bits))
		w, ok2 := wildcardBitsOf(wildcardString(bits))
		return ok && ok2 && m == bits && w == bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskBitsRejectsNonContiguous(t *testing.T) {
	if _, ok := maskBits("255.0.255.0"); ok {
		t.Fatal("non-contiguous mask accepted")
	}
	if _, ok := wildcardBitsOf("0.255.0.255"); ok {
		t.Fatal("non-contiguous wildcard accepted")
	}
}

// Property: rendering is deterministic and parse(render(d)) re-renders
// identically for devices with randomized filter maps.
func TestRenderDeterministic(t *testing.T) {
	d := sampleRouter()
	if d.Render() != d.Render() {
		t.Fatal("render not deterministic")
	}
}

func TestParseRIPStanza(t *testing.T) {
	text := "hostname r1\nrouter rip\n version 2\n network 10.0.0.0/24\n distribute-list prefix F in Eth0\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.RIP == nil || len(d.RIP.Networks) != 1 || d.RIP.InFilters["Eth0"] != "F" {
		t.Fatalf("RIP parse wrong: %+v", d.RIP)
	}
}

func TestParseEIGRPStanza(t *testing.T) {
	text := "hostname r1\ninterface Eth0\n ip address 10.0.0.1 255.255.255.0\n delay 77\n!\nrouter eigrp 212\n network 10.0.0.0/24\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.EIGRP == nil || d.EIGRP.ID != 212 || len(d.EIGRP.Networks) != 1 {
		t.Fatalf("EIGRP parse wrong: %+v", d.EIGRP)
	}
	if d.Interfaces[0].Delay != 77 {
		t.Fatalf("delay lost: %+v", d.Interfaces[0])
	}
	if d.Render() != ParseMust(t, d.Render()).Render() {
		t.Fatal("EIGRP round trip diverged")
	}
}

func ParseMust(t *testing.T, text string) *Device {
	t.Helper()
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseTrailingWhitespaceAndCRLF(t *testing.T) {
	text := "hostname r1\r\ninterface Eth0\r\n ip address 10.0.0.1 255.255.255.0\t\r\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.Interfaces[0].Addr.Addr().String() != "10.0.0.1" {
		t.Fatalf("CRLF parse wrong: %+v", d.Interfaces[0])
	}
}

func TestParseBGPWithoutRouterID(t *testing.T) {
	text := "hostname r1\nrouter bgp 65000\n network 10.1.0.0 mask 255.255.255.0\n"
	d, err := ParseDevice(text)
	if err != nil {
		t.Fatal(err)
	}
	if d.BGP.RouterID.IsValid() {
		t.Fatal("phantom router-id")
	}
	if d.Render() != ParseMust(t, d.Render()).Render() {
		t.Fatal("round trip diverged")
	}
}

func TestDefaultDelayValue(t *testing.T) {
	i := &Interface{}
	if i.DelayValue() != DefaultDelay {
		t.Fatalf("default delay = %d", i.DelayValue())
	}
	i.Delay = 3
	if i.DelayValue() != 3 {
		t.Fatalf("explicit delay = %d", i.DelayValue())
	}
}
