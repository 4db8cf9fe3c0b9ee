// Package cluster is the distributed service tier: a consistent-hash
// ring that assigns canonical platform fingerprints to shards, the
// shard map that routers and routing clients share, and a router that
// fronts a fleet of msserve shards with a single /solve, /metrics and
// /healthz surface.
//
// # Placement
//
// The ring places each member at a configurable number of virtual-node
// points on a 64-bit circle; a platform hash is owned by the member
// whose point is the first at or clockwise after the hash's own point.
// Placement is a pure function of the member names and the vnode count:
// every router and client that knows the member list computes the same
// owner with no coordination, across restarts and regardless of the
// order members were added. Virtual nodes smooth the arc lengths so
// load splits near-evenly, and give membership changes the
// consistent-hashing property: a join or leave moves only the keys on
// the arcs the changed member's points cover — roughly vnodes/total of
// the keyspace — while every other key keeps its owner.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/platform"
)

// DefaultVnodes is the virtual-node count used when NewRing is given a
// non-positive value. 64 points per member keeps the max/mean arc ratio
// within a few percent for small fleets while the sorted-point slice
// stays trivially small.
const DefaultVnodes = 64

// ringSalt versions the point derivation. Changing how points are
// computed is a placement-breaking event for every deployed fleet, so
// the scheme is pinned by an explicit version string.
const ringSalt = "ms-ring/v1"

// point is one virtual node: a position on the 64-bit circle and the
// member that owns it.
type point struct {
	pt     uint64
	member string
}

// Ring is a consistent-hash ring over platform fingerprints. The zero
// value is not usable; construct with NewRing. Methods are not safe for
// concurrent mutation — guard Add/Remove externally or treat a built
// ring as immutable (the router copies on change).
type Ring struct {
	vnodes  int
	points  []point
	members map[string]bool
}

// NewRing returns an empty ring placing each member at vnodes points
// (DefaultVnodes if non-positive).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// memberPoint derives virtual node idx of a member: the first 8 bytes
// of sha256("ms-ring/v1" ‖ 0 ‖ member ‖ 0 ‖ idx), big-endian. The NUL
// separators keep (member, idx) pairs injective for any member string
// that — like a host:port — contains no NUL itself.
func memberPoint(member string, idx int) uint64 {
	h := sha256.New()
	h.Write([]byte(ringSalt))
	h.Write([]byte{0})
	h.Write([]byte(member))
	h.Write([]byte{0})
	var ib [8]byte
	binary.BigEndian.PutUint64(ib[:], uint64(idx))
	h.Write(ib[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPoint maps a platform fingerprint onto the circle: its first 8
// bytes, big-endian. The hash is already uniform SHA-256 output, so no
// further mixing is needed.
func keyPoint(h platform.Hash) uint64 {
	return binary.BigEndian.Uint64(h[:8])
}

// Add places a member on the ring. Adding a present member is an error:
// callers track membership intent, and a silent no-op would mask a
// double-registration bug.
func (r *Ring) Add(member string) error {
	if member == "" {
		return fmt.Errorf("cluster: empty member name")
	}
	if r.members[member] {
		return fmt.Errorf("cluster: member %q already on the ring", member)
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{memberPoint(member, i), member})
	}
	// Sort by (point, member): the member tie-break makes placement
	// deterministic even under the cryptographically improbable point
	// collision between two members.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pt != r.points[j].pt {
			return r.points[i].pt < r.points[j].pt
		}
		return r.points[i].member < r.points[j].member
	})
	return nil
}

// Remove takes a member off the ring; removing an absent member is an
// error for the same reason Add rejects duplicates.
func (r *Ring) Remove(member string) error {
	if !r.members[member] {
		return fmt.Errorf("cluster: member %q not on the ring", member)
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	ms := make([]string, 0, len(r.members))
	for m := range r.members {
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return ms
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Vnodes returns the per-member virtual-node count.
func (r *Ring) Vnodes() int { return r.vnodes }

// Owner returns the member owning the platform hash: the member of the
// first point at or clockwise after the hash's point, wrapping at the
// top of the circle. Empty rings own nothing ("" returned).
func (r *Ring) Owner(h platform.Hash) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(keyPoint(h))].member
}

// Owners returns up to n distinct members in ring order starting at the
// hash's owner — the failover sequence for the key: if the owner is
// down, the next distinct member clockwise is the stable second choice
// shared by every router.
func (r *Ring) Owners(h platform.Hash, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.successor(keyPoint(h)); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// successor returns the index of the first point at or after pt,
// wrapping to 0 past the last point.
func (r *Ring) successor(pt uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pt >= pt })
	if i == len(r.points) {
		return 0
	}
	return i
}

// ShardMap is a fleet's placement as every router and routing client
// uses it: the ring over the shard names, and each shard's base URL. A
// shard name is a host:port or an http:// URL, placed on the ring
// verbatim.
type ShardMap struct {
	ring *Ring
	urls map[string]string
}

// NewShardMap places the shards on a ring of vnodes points each
// (DefaultVnodes if non-positive). Routers and clients of one fleet
// must be given the same shard strings and vnodes, or their placements
// disagree.
func NewShardMap(shards []string, vnodes int) (*ShardMap, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: shard map needs at least one shard")
	}
	m := &ShardMap{ring: NewRing(vnodes), urls: make(map[string]string, len(shards))}
	for _, s := range shards {
		if err := m.ring.Add(s); err != nil {
			return nil, err
		}
		base := s
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		m.urls[s] = strings.TrimRight(base, "/")
	}
	return m, nil
}

// Ring returns the shard ring (read-only use).
func (m *ShardMap) Ring() *Ring { return m.ring }

// URL returns a shard's base URL, without a trailing slash.
func (m *ShardMap) URL(shard string) string { return m.urls[shard] }

// Targets returns the shards a request for the platform envelope env
// tries, in order: the owner of the platform's canonical hash, then
// every other shard clockwise. It errors when env does not decode.
func (m *ShardMap) Targets(env []byte) ([]string, error) {
	dec, err := platform.Decode(env)
	if err != nil {
		return nil, err
	}
	return m.ring.Owners(dec.Hash(), m.ring.Len()), nil
}
