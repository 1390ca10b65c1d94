// Package netaddr provides IPv4 prefix bookkeeping for configuration
// anonymization: allocation of fresh prefixes that are guaranteed not to
// collide with any address space already present in a network, and a
// deterministic prefix-preserving address anonymizer in the style of
// Crypto-PAn (Xu et al., ICNP 2002).
//
// ConfMask requires that every fake link and fake host receives an IP
// prefix "that is not included by any network that appeared in the original
// network configurations" (§5.3 of the paper), so that added filters for
// fake destinations can never interfere with real routes. The Pool type
// enforces exactly that invariant.
package netaddr

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"slices"
)

// Pool allocates IPv4 prefixes that do not overlap any reserved prefix.
// The zero value is not usable; construct with NewPool.
//
// Allocation walks candidate supernets (by default the RFC 1918 blocks) in
// order, carving fixed-size prefixes and skipping any candidate that
// overlaps a reserved or previously allocated prefix. Allocation order is
// deterministic, which keeps the whole anonymization pipeline reproducible
// under a fixed seed.
//
// The reserved IPv4 prefixes are indexed, so an overlap check costs one
// lookup per reserved prefix length and one binary search, however many
// prefixes are reserved: two prefixes overlap exactly when one contains
// the other's first address. The first lookups ask whether a reserved
// prefix contains the candidate's first address; the search, whether the
// candidate contains a reserved prefix's first address.
type Pool struct {
	// byLen holds the masked first address of every reserved IPv4
	// prefix, by length; lens lists the lengths present, ascending.
	byLen map[int]map[uint32]bool
	lens  []int
	// starts holds the same first addresses, sorted, duplicates kept.
	starts []uint32
	// other holds the reserved prefixes that are not IPv4, which no IPv4
	// candidate overlaps; they are checked by scan.
	other  []netip.Prefix
	supers []netip.Prefix // candidate supernets to carve from
	cursor map[int]netip.Addr
}

// DefaultSupernets is the candidate space new prefixes are carved from:
// the three RFC 1918 blocks, walked in order.
func DefaultSupernets() []netip.Prefix {
	return []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("172.16.0.0/12"),
		netip.MustParsePrefix("192.168.0.0/16"),
	}
}

// NewPool returns a Pool that will never allocate a prefix overlapping any
// element of used. The supernets argument selects the candidate space; nil
// selects DefaultSupernets.
func NewPool(used []netip.Prefix, supernets []netip.Prefix) *Pool {
	if supernets == nil {
		supernets = DefaultSupernets()
	}
	p := &Pool{
		byLen:  make(map[int]map[uint32]bool),
		supers: supernets,
		cursor: make(map[int]netip.Addr, len(supernets)),
	}
	for i, s := range supernets {
		p.cursor[i] = s.Addr()
	}
	for _, pfx := range used {
		if pfx.IsValid() && pfx.Addr().Is4() {
			p.starts = append(p.starts, p.index(pfx))
		} else if pfx.IsValid() {
			p.other = append(p.other, pfx)
		}
	}
	slices.Sort(p.starts)
	return p
}

// Reserve marks pfx as in use so it will never be returned by Alloc.
func (p *Pool) Reserve(pfx netip.Prefix) {
	switch {
	case !pfx.IsValid():
		// An invalid prefix overlaps nothing.
	case pfx.Addr().Is4():
		start := p.index(pfx)
		i, _ := slices.BinarySearch(p.starts, start)
		p.starts = slices.Insert(p.starts, i, start)
	default:
		p.other = append(p.other, pfx)
	}
}

// index records an IPv4 prefix in byLen and lens and returns its masked
// first address, for the caller to place in starts.
func (p *Pool) index(pfx netip.Prefix) uint32 {
	bits := pfx.Bits()
	start := addrBits(pfx.Masked().Addr())
	set := p.byLen[bits]
	if set == nil {
		set = make(map[uint32]bool)
		p.byLen[bits] = set
		i, _ := slices.BinarySearch(p.lens, bits)
		p.lens = slices.Insert(p.lens, i, bits)
	}
	set[start] = true
	return start
}

// Overlaps reports whether pfx overlaps any reserved prefix.
func (p *Pool) Overlaps(pfx netip.Prefix) bool {
	if !pfx.IsValid() {
		return false
	}
	if !pfx.Addr().Is4() {
		return slices.ContainsFunc(p.other, pfx.Overlaps)
	}
	bits := pfx.Bits()
	first := addrBits(pfx.Masked().Addr())
	_, covered := p.covering(first, bits)
	return covered || p.holdsStart(first, bits)
}

// covering returns the last address of the shortest reserved IPv4 prefix
// that contains the block of length bits starting at first, if any: a
// reserved prefix no longer than the block that contains its first
// address.
func (p *Pool) covering(first uint32, bits int) (last uint32, ok bool) {
	for _, b := range p.lens {
		if b > bits {
			break
		}
		if p.byLen[b][first&prefixMask(b)] {
			return first | ^prefixMask(b), true
		}
	}
	return 0, false
}

// holdsStart reports whether the block of length bits starting at first
// contains a reserved IPv4 prefix's first address.
func (p *Pool) holdsStart(first uint32, bits int) bool {
	last := first | ^prefixMask(bits)
	i, _ := slices.BinarySearch(p.starts, first)
	return i < len(p.starts) && p.starts[i] <= last
}

// addrBits returns an IPv4 address as a number.
func addrBits(a netip.Addr) uint32 {
	a4 := a.As4()
	return uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
}

// addrFrom returns the IPv4 address a number stands for.
func addrFrom(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// prefixMask returns the netmask of an IPv4 prefix length.
func prefixMask(bits int) uint32 {
	if bits == 0 {
		return 0
	}
	return ^uint32(0) << (32 - bits)
}

// Alloc carves and reserves a fresh prefix of the given length. It returns
// an error only when every candidate supernet is exhausted, which for
// realistic network sizes (thousands of links) cannot happen within the
// RFC 1918 space.
//
// A candidate that a reserved prefix contains is skipped together with
// every later candidate that prefix contains, in one step: a reserved
// 10.0.0.0/8 costs one overlap check, not one per /31 it holds. The
// candidates skipped would all have overlapped, so the sequence of
// allocations is the one a walk over every candidate gives.
func (p *Pool) Alloc(bits int) (netip.Prefix, error) {
	if bits < 0 || bits > 32 {
		return netip.Prefix{}, fmt.Errorf("netaddr: invalid prefix length /%d", bits)
	}
	for i, s := range p.supers {
		if bits < s.Bits() {
			continue // requested block larger than the supernet
		}
		addr := p.cursor[i]
		for s.Contains(addr) {
			cand := netip.PrefixFrom(addr, bits).Masked()
			first := addrBits(cand.Addr())
			if last, covered := p.covering(first, bits); covered {
				if last == ^uint32(0) {
					break // the reserved prefix runs to the end of the space
				}
				addr = addrFrom(last + 1)
				continue
			}
			next, ok := nextBlock(cand)
			if !p.holdsStart(first, bits) {
				p.Reserve(cand)
				if ok {
					p.cursor[i] = next.Addr()
				} else {
					p.cursor[i] = s.Addr().Prev() // exhausted; Contains fails next time
				}
				return cand, nil
			}
			if !ok {
				break
			}
			addr = next.Addr()
		}
	}
	return netip.Prefix{}, fmt.Errorf("netaddr: address space exhausted for /%d", bits)
}

// AllocP2P allocates a /31 point-to-point link prefix and returns the two
// usable addresses in order.
func (p *Pool) AllocP2P() (pfx netip.Prefix, a, b netip.Addr, err error) {
	pfx, err = p.Alloc(31)
	if err != nil {
		return netip.Prefix{}, netip.Addr{}, netip.Addr{}, err
	}
	a = pfx.Addr()
	b = a.Next()
	return pfx, a, b, nil
}

// AllocLAN allocates a /24 host LAN prefix and returns the gateway (.1) and
// host (.2) addresses.
func (p *Pool) AllocLAN() (pfx netip.Prefix, gw, host netip.Addr, err error) {
	pfx, err = p.Alloc(24)
	if err != nil {
		return netip.Prefix{}, netip.Addr{}, netip.Addr{}, err
	}
	gw = pfx.Addr().Next()
	host = gw.Next()
	return pfx, gw, host, nil
}

// nextBlock returns the prefix immediately following pfx at the same
// length, and false if pfx is the last block in the IPv4 space.
func nextBlock(pfx netip.Prefix) (netip.Prefix, bool) {
	a4 := pfx.Addr().As4()
	v := uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3])
	step := uint64(1) << (32 - pfx.Bits())
	v += step
	if v > 0xFFFFFFFF {
		return netip.Prefix{}, false
	}
	var out [4]byte
	out[0] = byte(v >> 24)
	out[1] = byte(v >> 16)
	out[2] = byte(v >> 8)
	out[3] = byte(v)
	return netip.PrefixFrom(netip.AddrFrom4(out), pfx.Bits()), true
}

// Anonymizer is a deterministic prefix-preserving IPv4 address anonymizer.
// Two addresses sharing an n-bit prefix map to two addresses sharing an
// n-bit prefix, the defining property of Crypto-PAn. The bit-flip decision
// at each depth is derived from an HMAC-SHA256 PRF keyed by a caller
// secret, so the mapping is stable across runs with the same key.
//
// ConfMask treats PII obfuscation (including IP anonymization) as an
// add-on stage after topology and route anonymization (§9); Anonymizer is
// that add-on.
type Anonymizer struct {
	key []byte
}

// NewAnonymizer returns an Anonymizer keyed with the given secret.
func NewAnonymizer(key []byte) *Anonymizer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Anonymizer{key: k}
}

// Addr maps an IPv4 address to its anonymized form.
func (an *Anonymizer) Addr(a netip.Addr) netip.Addr {
	if !a.Is4() {
		return a
	}
	in := a.As4()
	v := uint32(in[0])<<24 | uint32(in[1])<<16 | uint32(in[2])<<8 | uint32(in[3])
	var out uint32
	for i := 0; i < 32; i++ {
		// The flip bit for position i depends only on the i-bit prefix of
		// the input, which is exactly what makes the scheme
		// prefix-preserving.
		prefix := v >> (32 - i) // top i bits, right-aligned (0 when i==0)
		mac := hmac.New(sha256.New, an.key)
		var buf [5]byte
		buf[0] = byte(i)
		buf[1] = byte(prefix >> 24)
		buf[2] = byte(prefix >> 16)
		buf[3] = byte(prefix >> 8)
		buf[4] = byte(prefix)
		mac.Write(buf[:])
		flip := mac.Sum(nil)[0] & 1
		bit := (v >> (31 - i)) & 1
		out = out<<1 | (bit ^ uint32(flip))
	}
	var o [4]byte
	o[0] = byte(out >> 24)
	o[1] = byte(out >> 16)
	o[2] = byte(out >> 8)
	o[3] = byte(out)
	return netip.AddrFrom4(o)
}

// Prefix maps a prefix by anonymizing its base address and keeping its
// length; because Addr is prefix-preserving the result respects subnet
// structure.
func (an *Anonymizer) Prefix(p netip.Prefix) netip.Prefix {
	return netip.PrefixFrom(an.Addr(p.Addr()), p.Bits()).Masked()
}
