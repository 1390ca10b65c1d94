package netaddr

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
)

// linearPool is the reference allocator for the differential tests: the
// allocation walk of Pool with an overlap check that scans every reserved
// prefix.
type linearPool struct {
	reserved []netip.Prefix
	supers   []netip.Prefix
	cursor   []netip.Addr
}

func newLinearPool(used, supernets []netip.Prefix) *linearPool {
	p := &linearPool{reserved: append([]netip.Prefix(nil), used...), supers: supernets}
	for _, s := range supernets {
		p.cursor = append(p.cursor, s.Addr())
	}
	return p
}

func (p *linearPool) overlaps(pfx netip.Prefix) bool {
	for _, r := range p.reserved {
		if r.Overlaps(pfx) {
			return true
		}
	}
	return false
}

func (p *linearPool) alloc(bits int) (netip.Prefix, error) {
	for i, s := range p.supers {
		if bits < s.Bits() {
			continue
		}
		for addr := p.cursor[i]; s.Contains(addr); {
			cand := netip.PrefixFrom(addr, bits).Masked()
			next, ok := nextBlock(cand)
			if !p.overlaps(cand) {
				p.reserved = append(p.reserved, cand)
				if ok {
					p.cursor[i] = next.Addr()
				} else {
					p.cursor[i] = s.Addr().Prev()
				}
				return cand, nil
			}
			if !ok {
				break
			}
			addr = next.Addr()
		}
	}
	return netip.Prefix{}, fmt.Errorf("exhausted /%d", bits)
}

// randomPrefix draws a prefix near one of anchors: a random length in
// [minBits, 32] and random host bits below the anchor's, left unmasked a
// quarter of the time (as interface addresses are).
func randomPrefix(rng *rand.Rand, anchors []netip.Prefix, minBits int) netip.Prefix {
	a := anchors[rng.Intn(len(anchors))]
	base := addrBits(a.Addr())
	free := 32 - a.Bits()
	if free > 0 {
		base |= uint32(rng.Int63()) & (^uint32(0) >> (32 - free))
	}
	bits := minBits + rng.Intn(33-minBits)
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(base>>24), byte(base>>16), byte(base>>8), byte(base)
	pfx := netip.PrefixFrom(netip.AddrFrom4(b), bits)
	if rng.Intn(4) != 0 {
		pfx = pfx.Masked()
	}
	return pfx
}

// randomReserved draws a reserved set around anchors: random prefixes,
// with nested ones (a longer prefix inside an earlier one), adjacent ones
// (the next block after an earlier one), duplicates, supernets of the
// anchors themselves, and now and then an IPv6 or invalid prefix.
func randomReserved(rng *rand.Rand, anchors []netip.Prefix, n, minBits int) []netip.Prefix {
	var out []netip.Prefix
	for len(out) < n {
		switch k := rng.Intn(10); {
		case k < 4 || len(out) == 0:
			out = append(out, randomPrefix(rng, anchors, minBits))
		case k == 4: // nested
			prev := out[rng.Intn(len(out))]
			if prev.Addr().Is4() && prev.Bits() < 32 {
				out = append(out, netip.PrefixFrom(prev.Addr(), prev.Bits()+1+rng.Intn(32-prev.Bits())).Masked())
			}
		case k == 5: // adjacent
			if prev := out[rng.Intn(len(out))]; prev.Addr().Is4() {
				if next, ok := nextBlock(prev.Masked()); ok {
					out = append(out, next)
				}
			}
		case k == 6: // duplicate
			out = append(out, out[rng.Intn(len(out))])
		case k == 7: // spanning a supernet
			a := anchors[rng.Intn(len(anchors))]
			if b := a.Bits() - rng.Intn(3); b >= minBits && rng.Intn(3) == 0 {
				out = append(out, netip.PrefixFrom(a.Addr(), b).Masked())
			}
		case k == 8:
			if rng.Intn(4) == 0 {
				out = append(out, netip.MustParsePrefix("2001:db8::/48"), netip.Prefix{})
			}
		default: // inside an anchor, on its boundary
			a := anchors[rng.Intn(len(anchors))]
			out = append(out, netip.PrefixFrom(a.Addr(), a.Bits()+rng.Intn(33-a.Bits())).Masked())
		}
	}
	return out
}

// TestPoolOverlapsMatchesLinearScan compares Overlaps with a scan of
// every reserved prefix, on random reserved sets and random candidates of
// every length, IPv4 and IPv6, including candidates reserved later
// through Reserve.
func TestPoolOverlapsMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	anchors := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/22"),
		netip.MustParsePrefix("10.1.2.0/24"),
		netip.MustParsePrefix("172.16.0.0/12"),
		netip.MustParsePrefix("192.168.0.0/16"),
		netip.MustParsePrefix("0.0.0.0/0"),
	}
	for trial := 0; trial < 300; trial++ {
		used := randomReserved(rng, anchors, 1+rng.Intn(40), 1+rng.Intn(16))
		p, ref := NewPool(used, nil), newLinearPool(used, nil)
		for k := 0; k < 200; k++ {
			cand := randomPrefix(rng, anchors, 0)
			if rng.Intn(20) == 0 {
				cand = netip.MustParsePrefix("2001:db8::/64")
			}
			if got, want := p.Overlaps(cand), ref.overlaps(cand); got != want {
				t.Fatalf("trial %d: Overlaps(%v) = %v, linear scan %v; reserved %v", trial, cand, got, want, ref.reserved)
			}
			if rng.Intn(10) == 0 {
				p.Reserve(cand)
				ref.reserved = append(ref.reserved, cand)
			}
		}
	}
}

// TestPoolAllocMatchesLinearScan pins Alloc's sequence to the linear-scan
// allocator: random reserved sets over four supernets (nested, adjacent
// and duplicate prefixes, prefixes inside the large supernet that Alloc
// jumps past, and in half the trials a prefix spanning one or two of the
// three small supernets whole), then random allocation lengths until both
// run out or 300 allocations, every result and the exhaustion error
// alike. The reference walks a spanned supernet's every candidate on each
// call, so nothing spans the large one, whose walk would make it slow.
func TestPoolAllocMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	supers := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/26"),
		netip.MustParsePrefix("10.0.1.0/24"),
		netip.MustParsePrefix("10.0.32.0/19"),
		netip.MustParsePrefix("192.168.0.0/25"),
	}
	large := supers[2]
	small := []netip.Prefix{supers[0], supers[1], supers[3]}
	allocs, exhausted, spanned := 0, 0, 0
	for trial := 0; trial < 100; trial++ {
		var used []netip.Prefix
		for _, r := range randomReserved(rng, supers, rng.Intn(60), 21) {
			if r.Bits() > 20 || !r.Overlaps(large) {
				used = append(used, r)
			}
		}
		if rng.Intn(2) == 0 {
			// A small supernet itself, or widened by two bits: the
			// /22 around 10.0.1.0/24 spans 10.0.0.0/26 too.
			s := small[rng.Intn(len(small))]
			used = append(used, netip.PrefixFrom(s.Addr(), s.Bits()-2*rng.Intn(2)).Masked())
			spanned++
		}
		p, ref := NewPool(used, supers), newLinearPool(used, supers)
		for k := 0; k < 300; k++ {
			bits := 28 + rng.Intn(5)
			if rng.Intn(16) == 0 {
				bits = 24 + 2*rng.Intn(2)
			}
			got, gerr := p.Alloc(bits)
			want, werr := ref.alloc(bits)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d alloc %d (/%d): got %v (%v), linear scan %v (%v)", trial, k, bits, got, gerr, want, werr)
			}
			if gerr != nil {
				exhausted++
				break
			}
			allocs++
		}
	}
	// Both outcomes must be common, or the sets are too sparse or too
	// dense to test anything.
	if allocs < 10000 || exhausted < 10 || spanned < 30 {
		t.Fatalf("%d allocations, %d exhaustions and %d spanned supernets over 100 trials", allocs, exhausted, spanned)
	}
	t.Logf("%d allocations, %d exhaustions, %d spanned supernets", allocs, exhausted, spanned)
}

// TestPoolAllocSkipsCoveredSupernet pins the allocation sequence with
// 10.0.0.0/8 reserved to the one a Pool gets whose supernets leave 10/8
// out: 64 /31s, all from 172.16.0.0/12. Walking the reserved /8 one
// candidate at a time would test 2^23 candidates per allocation.
func TestPoolAllocSkipsCoveredSupernet(t *testing.T) {
	covered := NewPool([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}, nil)
	rest := NewPool(nil, DefaultSupernets()[1:])
	for k := 0; k < 64; k++ {
		got, gerr := covered.Alloc(31)
		want, werr := rest.Alloc(31)
		if got != want || gerr != nil || werr != nil {
			t.Fatalf("allocation %d: %v (%v) with 10/8 reserved, %v (%v) without 10/8", k, got, gerr, want, werr)
		}
	}
}

// BenchmarkPoolAlloc allocates address blocks the way the pipeline does:
// 256 /24 LANs over 2,000 reserved /31 link prefixes, the shape of adding
// twin hosts to a large network; and 64 /31 links with 10.0.0.0/8
// reserved whole, as a network with a 10/8 static route or prefix-list
// entry reserves it.
func BenchmarkPoolAlloc(b *testing.B) {
	var links []netip.Prefix
	for i := 0; i < 2000; i++ {
		links = append(links, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 7), byte(i << 1), 0}), 31))
	}
	cases := []struct {
		name    string
		used    []netip.Prefix
		n, bits int
	}{
		{"lans", links, 256, 24},
		{"covered-supernet", []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}, 64, 31},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := NewPool(c.used, nil)
				for k := 0; k < c.n; k++ {
					if _, err := p.Alloc(c.bits); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
