// Package query is the privacy-preserving verification query engine: it
// answers batches of verification predicates over the cached data-plane
// snapshots of a completed anonymization job, without re-simulation.
//
// This is the consumer side of ConfMask's bargain (and the direction
// Seagull frames as privacy-preserving network verification): the party
// receiving anonymized configurations should be able to *verify*
// properties — reachability, waypointing, isolation, behavior under
// failure — against the shared network, and those answers should match
// the hidden original often enough to be useful. The engine serves every
// predicate from the Snapshot's per-destination path engines, so a batch
// costs cache lookups, not simulations; the attacker-vs-verifier
// benchmark (internal/experiments) quantifies how much utility survives
// each anonymization setting against how much an attacker recovers.
package query

import (
	"fmt"
	"strings"

	"confmask/internal/sim"
)

// Kind names a verification predicate.
type Kind string

const (
	// Reachability asks whether at least one forwarding path from Src is
	// delivered to Dst.
	Reachability Kind = "reachability"
	// Waypoint asks whether Src can reach Dst AND every delivered path
	// traverses the device Via.
	Waypoint Kind = "waypoint"
	// PathDiff asks whether the original and anonymized networks forward
	// Src→Dst along byte-identical path sets (requires an engine built
	// with a baseline snapshot).
	PathDiff Kind = "pathdiff"
	// Isolation asks whether no delivered path exists from Src to Dst.
	Isolation Kind = "isolation"
	// WhatIf asks whether Src still reaches Dst after a single link or
	// node failure, with the pre-failure FIBs (no reconvergence — see
	// sim.TraceUnderFailure for the failure model).
	WhatIf Kind = "whatif"
)

// Query is one verification predicate. Src may be any device (host or
// router); Dst must be a host. Via (waypoint) is any device. Exactly one
// of FailNode / FailLink is required for whatif; FailLink is written
// "a<->b".
type Query struct {
	ID       string `json:"id,omitempty"`
	Kind     Kind   `json:"kind"`
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Via      string `json:"via,omitempty"`
	FailNode string `json:"fail_node,omitempty"`
	FailLink string `json:"fail_link,omitempty"`
}

// failure derives the sim failure from the whatif fields.
func (q Query) failure() (sim.Failure, error) {
	var f sim.Failure
	f.Node = q.FailNode
	if q.FailLink != "" {
		a, b, ok := strings.Cut(q.FailLink, "<->")
		if !ok {
			return f, fmt.Errorf("fail_link %q: want \"a<->b\"", q.FailLink)
		}
		f.LinkA, f.LinkB = a, b
	}
	if err := f.Validate(); err != nil {
		return f, err
	}
	return f, nil
}

// Result is the engine's answer to one query. Holds is the predicate
// verdict; Status classifies the (anonymized-side) path set as delivered,
// blackholed, looped, mixed, or none; Changed is whatif-only and reports
// whether the failure altered the path set at all. A malformed query gets
// Error set and zero values elsewhere — errors are per-query, never
// batch-fatal, so batches answer deterministically regardless of which
// entries are valid.
type Result struct {
	Index     int    `json:"index"`
	ID        string `json:"id,omitempty"`
	Kind      Kind   `json:"kind"`
	Holds     bool   `json:"holds"`
	Status    string `json:"status,omitempty"`
	Paths     int    `json:"paths,omitempty"`
	Delivered int    `json:"delivered,omitempty"`
	Changed   bool   `json:"changed,omitempty"`
	Error     string `json:"error,omitempty"`
}

// classify summarizes a canonical path listing from its outcome counts.
func classify(l sim.Listing) (status string, delivered int) {
	d, looped, blackholed := l.Counts()
	switch n := l.Len(); {
	case n == 0:
		return "none", 0
	case d == n:
		return "delivered", d
	case looped == n:
		return "looped", 0
	case blackholed == n:
		return "blackholed", 0
	default:
		return "mixed", d
	}
}
