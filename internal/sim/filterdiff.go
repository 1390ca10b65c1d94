package sim

import (
	"net/netip"

	"confmask/internal/config"
)

// FilterDiff summarizes what changed between two filter views of a Net:
// the set of destination prefixes whose deny decision may have flipped
// anywhere in the network. InvalidateFilters returns one so callers can
// re-walk only the destinations a filter mutation can affect
// (DataPlaneForDirty carries the rest forward from the prior DataPlane;
// Algorithm 2 re-checks reachability only for dirty fake hosts). The Net
// keeps the union of the diffs since its last simulation too: the next
// SimulateNet rebuilds only the OSPF rows and route columns of the
// prefixes that union marks, and shares every other column with the
// previous Snapshot.
//
// Soundness rests on the simulator's per-prefix filter independence:
// distribute-list filters act when a protocol installs a candidate route
// for a specific prefix (runOSPF asks each link's compiled inbound list,
// runRIP/runEIGRP consult filterDenies* per candidate prefix; BGP filters
// each advertised prefix at the receiving neighbor, and offerRoutes
// filters the iBGP next hops it resolves through the filter-independent
// SPF state). A deny-decision change for prefix set P therefore only
// changes the route columns of the prefixes in P, so a trace toward
// destination d can only change when some prefix in P overlaps d's LAN
// prefix. The property
// tests in dataplane_test.go exercise this end to end against full
// re-extraction, and delta_test.go pins delta re-simulation, and the
// seeded Nets of BuildFrom, against a fresh Build.
//
// The diff is conservative: ranged (`le`) rule changes and attachment
// changes of ranged lists mark everything dirty, and a nil *FilterDiff
// also means "assume everything changed".
type FilterDiff struct {
	all      bool
	prefixes map[netip.Prefix]bool
}

// All reports whether every destination must be considered dirty.
func (d *FilterDiff) All() bool { return d == nil || d.all }

// Empty reports that no deny decision changed: every prior trace is still
// valid.
func (d *FilterDiff) Empty() bool { return d != nil && !d.all && len(d.prefixes) == 0 }

// Affects reports whether a trace toward a destination with the given LAN
// prefix may have changed. Invalid prefixes (unknown destinations) never
// overlap anything, but an all-dirty diff still reports them affected.
func (d *FilterDiff) Affects(pfx netip.Prefix) bool {
	if d.All() {
		return true
	}
	for q := range d.prefixes {
		if q.Overlaps(pfx) {
			return true
		}
	}
	return false
}

// Prefixes returns the changed prefixes in sorted order (nil when All).
func (d *FilterDiff) Prefixes() []netip.Prefix {
	if d.All() {
		return nil
	}
	return sortedPrefixes(d.prefixes)
}

// Marks reports whether a route for exactly prefix p may have changed:
// the test a route column needs (Affects asks about every prefix that
// can carry traffic toward a destination), since a deny decision for p
// is the decision recorded under p's masked form (see listEval.denies).
func (d *FilterDiff) Marks(p netip.Prefix) bool {
	return d.All() || d.prefixes[p.Masked()]
}

// union returns a diff marking everything d or o marks. Neither operand
// is modified: callers may still hold both.
func (d *FilterDiff) union(o *FilterDiff) *FilterDiff {
	if d.All() || o.All() {
		return &FilterDiff{all: true}
	}
	u := &FilterDiff{}
	for p := range d.prefixes {
		u.mark(p)
	}
	for p := range o.prefixes {
		u.mark(p)
	}
	return u
}

func (d *FilterDiff) markAll() { d.all = true }

func (d *FilterDiff) mark(p netip.Prefix) {
	if d.all {
		return
	}
	if d.prefixes == nil {
		d.prefixes = make(map[netip.Prefix]bool)
	}
	d.prefixes[p] = true
}

// filterState is the filter view captured at Build/InvalidateFilters time:
// the compiled deny tables plus where each list is attached. Both matter —
// editing a list's rules changes decisions at existing attachment points,
// while attaching/detaching a list changes decisions without touching any
// rule.
type filterState struct {
	lists  map[string]*listEval // denyCache, shared not copied
	attach map[string]string    // attachment point → device-scoped list key
}

// captureFilterState snapshots the current attachment map alongside the
// freshly built deny cache.
func (n *Net) captureFilterState() *filterState {
	st := &filterState{lists: n.denyCache, attach: make(map[string]string)}
	add := func(dev, proto, point, list string) {
		if list == "" {
			return
		}
		// The value is the device-scoped list key so attachment moves
		// between same-named lists on different devices still diff.
		st.attach[dev+"\x00"+proto+"\x00"+point] = dev + "\x00" + list
	}
	for _, name := range n.Cfg.Names() {
		d := n.Cfg.Device(name)
		if d.OSPF != nil {
			for iface, list := range d.OSPF.InFilters {
				add(name, "ospf", iface, list)
			}
		}
		if d.RIP != nil {
			for iface, list := range d.RIP.InFilters {
				add(name, "rip", iface, list)
			}
		}
		if d.EIGRP != nil {
			for iface, list := range d.EIGRP.InFilters {
				add(name, "eigrp", iface, list)
			}
		}
		if d.BGP != nil {
			for _, nb := range d.BGP.Neighbors {
				add(name, "bgp", nb.Addr.String(), nb.DistributeListIn)
			}
		}
	}
	return st
}

// diffFilterStates computes which prefixes may have flipped a deny
// decision between two filter states.
func diffFilterStates(old, cur *filterState) *FilterDiff {
	d := &FilterDiff{}

	// Rule-content changes of lists present in either state.
	for key, ce := range cur.lists {
		diffListEvals(d, old.lists[key], ce)
		if d.all {
			return d
		}
	}
	for key, oe := range old.lists {
		if _, ok := cur.lists[key]; !ok {
			diffListEvals(d, oe, nil)
			if d.all {
				return d
			}
		}
	}

	// Attachment changes: a list newly applied (or removed, or swapped)
	// at a point changes the deny decision for every prefix either
	// involved list denies, without any rule edit.
	markListDenies := func(st *filterState, listKey string) {
		if listKey == "" {
			return
		}
		ev, ok := st.lists[listKey]
		if !ok {
			return // unknown list filters nothing
		}
		markEvalDenies(d, ev)
	}
	for point, cl := range cur.attach {
		if ol := old.attach[point]; ol != cl {
			markListDenies(old, ol)
			markListDenies(cur, cl)
			if d.all {
				return d
			}
		}
	}
	for point, ol := range old.attach {
		if _, ok := cur.attach[point]; !ok {
			markListDenies(old, ol)
			if d.all {
				return d
			}
		}
	}
	return d
}

// markEvalDenies marks every prefix a compiled list denies (conservatively
// everything for ranged lists).
func markEvalDenies(d *FilterDiff, ev *listEval) {
	if ev.ranged {
		d.markAll()
		return
	}
	for p, deny := range ev.exact {
		if deny {
			d.mark(p)
		}
	}
}

// diffListEvals marks the prefixes whose deny decision differs between two
// compiled versions of the same list (nil = list absent, denying nothing).
func diffListEvals(d *FilterDiff, a, b *listEval) {
	if a == nil && b == nil {
		return
	}
	if a == nil {
		markEvalDenies(d, b)
		return
	}
	if b == nil {
		markEvalDenies(d, a)
		return
	}
	if a.ranged || b.ranged {
		if !rulesEqual(a.rules, b.rules) || a.ranged != b.ranged {
			d.markAll()
		}
		return
	}
	for p, deny := range a.exact {
		if b.exact[p] != deny {
			d.mark(p)
		}
	}
	for p, deny := range b.exact {
		if a.exact[p] != deny {
			d.mark(p)
		}
	}
}

func rulesEqual(a, b []config.PrefixRule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
