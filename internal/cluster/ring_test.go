package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/platform"
)

// sampleHashes returns k pseudo-platform fingerprints from a fixed
// seed. Ring placement only reads the first 8 bytes, and real
// fingerprints are SHA-256 output, so uniform random bytes model them
// exactly.
func sampleHashes(k int) []platform.Hash {
	rng := rand.New(rand.NewSource(42))
	hs := make([]platform.Hash, k)
	for i := range hs {
		rng.Read(hs[i][:])
	}
	return hs
}

func mustAdd(t *testing.T, r *Ring, members ...string) {
	t.Helper()
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
}

func fleet(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("shard-%d.example:8080", i)
	}
	return ms
}

// TestOwnerDeterministicAcrossRestarts: two independently built rings
// over the same membership agree on every key — placement is a pure
// function of (members, vnodes), which is what lets routers and clients
// compute owners with no coordination and survive restarts.
func TestOwnerDeterministicAcrossRestarts(t *testing.T) {
	keys := sampleHashes(2000)
	a, b := NewRing(64), NewRing(64)
	mustAdd(t, a, fleet(5)...)
	mustAdd(t, b, fleet(5)...)
	for _, h := range keys {
		if ao, bo := a.Owner(h), b.Owner(h); ao != bo {
			t.Fatalf("rings disagree on %s: %q vs %q", h, ao, bo)
		}
	}
}

// TestOwnerGolden pins the point-derivation scheme: these placements
// may only change with a deliberate ringSalt version bump, because a
// silent change reshuffles every deployed fleet's warm sets.
func TestOwnerGolden(t *testing.T) {
	r := NewRing(64)
	mustAdd(t, r, "a:1", "b:2", "c:3")
	var h1, h2 platform.Hash
	h1[0] = 0x01
	for i := range h2 {
		h2[i] = byte(i * 7)
	}
	got := []string{r.Owner(h1), r.Owner(h2), r.Owner(platform.Hash{})}
	want := []string{"c:3", "b:2", "b:2"}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("golden owner %d = %q, want %q (point derivation changed?)", i, got[i], want[i])
		}
	}
}

// TestOwnerPermutationInvariance: the order members join must not
// matter — every permutation of the same fleet yields identical
// placement for every key.
func TestOwnerPermutationInvariance(t *testing.T) {
	keys := sampleHashes(1000)
	members := fleet(6)
	ref := NewRing(32)
	mustAdd(t, ref, members...)
	want := make([]string, len(keys))
	for i, h := range keys {
		want[i] = ref.Owner(h)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(members))
		r := NewRing(32)
		for _, i := range perm {
			mustAdd(t, r, members[i])
		}
		for i, h := range keys {
			if got := r.Owner(h); got != want[i] {
				t.Fatalf("trial %d (order %v): key %d owner %q, want %q", trial, perm, i, got, want[i])
			}
		}
	}
}

// TestJoinMovesOnlyTheArc: adding a member to an M-shard ring moves
// only keys whose new owner IS the joiner, and about 1/(M+1) of the
// keyspace — the consistent-hashing contract that a join costs one
// arc's warm set, not a full reshuffle.
func TestJoinMovesOnlyTheArc(t *testing.T) {
	const m, k = 5, 20000
	keys := sampleHashes(k)
	before := NewRing(64)
	mustAdd(t, before, fleet(m)...)
	owners := make([]string, k)
	for i, h := range keys {
		owners[i] = before.Owner(h)
	}

	after := NewRing(64)
	mustAdd(t, after, fleet(m)...)
	const joiner = "shard-new.example:8080"
	mustAdd(t, after, joiner)

	moved := 0
	for i, h := range keys {
		got := after.Owner(h)
		if got == owners[i] {
			continue
		}
		moved++
		if got != joiner {
			t.Fatalf("key %d moved %q → %q, but only moves to the joiner are allowed", i, owners[i], got)
		}
	}
	// Expected fraction 1/(m+1); allow 50% relative slack for vnode
	// placement variance at 64 points.
	maxMoved := k * 3 / (2 * (m + 1))
	if moved == 0 || moved > maxMoved {
		t.Errorf("join moved %d of %d keys, want (0, %d]", moved, k, maxMoved)
	}
}

// TestLeaveMovesOnlyTheArc: removing a member reassigns exactly the
// keys it owned; every other key keeps its owner.
func TestLeaveMovesOnlyTheArc(t *testing.T) {
	const m, k = 6, 20000
	keys := sampleHashes(k)
	r := NewRing(64)
	members := fleet(m)
	mustAdd(t, r, members...)
	owners := make([]string, k)
	for i, h := range keys {
		owners[i] = r.Owner(h)
	}

	leaver := members[2]
	if err := r.Remove(leaver); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, h := range keys {
		got := r.Owner(h)
		if owners[i] == leaver {
			moved++
			if got == leaver {
				t.Fatalf("key %d still owned by removed member", i)
			}
			continue
		}
		if got != owners[i] {
			t.Fatalf("key %d not owned by the leaver moved %q → %q", i, owners[i], got)
		}
	}
	maxMoved := k * 3 / (2 * m)
	if moved == 0 || moved > maxMoved {
		t.Errorf("leave moved %d of %d keys, want (0, %d]", moved, k, maxMoved)
	}
}

// TestOwnersFailoverSequence: Owners starts at the owner, lists
// distinct members in ring order, and caps at the fleet size — the
// shared failover sequence every router computes identically.
func TestOwnersFailoverSequence(t *testing.T) {
	r := NewRing(64)
	mustAdd(t, r, fleet(4)...)
	for _, h := range sampleHashes(200) {
		seq := r.Owners(h, 10)
		if len(seq) != 4 {
			t.Fatalf("Owners returned %d members, want all 4", len(seq))
		}
		if seq[0] != r.Owner(h) {
			t.Fatalf("Owners[0] = %q, but Owner = %q", seq[0], r.Owner(h))
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Owners repeats %q: %v", m, seq)
			}
			seen[m] = true
		}
	}
	if got := r.Owners(sampleHashes(1)[0], 2); len(got) != 2 {
		t.Errorf("Owners(h, 2) returned %d members, want 2", len(got))
	}
}

// TestBalance: with 64 vnodes no member of a 5-shard fleet owns more
// than twice the fair share — a coarse guard against derivation bugs
// that collapse points.
func TestBalance(t *testing.T) {
	const m, k = 5, 50000
	r := NewRing(64)
	mustAdd(t, r, fleet(m)...)
	counts := map[string]int{}
	for _, h := range sampleHashes(k) {
		counts[r.Owner(h)]++
	}
	for member, c := range counts {
		if c > 2*k/m {
			t.Errorf("member %q owns %d of %d keys (fair share %d)", member, c, k, k/m)
		}
	}
	if len(counts) != m {
		t.Errorf("only %d of %d members own keys", len(counts), m)
	}
}

// TestMembershipErrors: duplicate adds and absent removes fail loudly.
func TestMembershipErrors(t *testing.T) {
	r := NewRing(8)
	mustAdd(t, r, "a:1")
	if err := r.Add("a:1"); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty-name Add succeeded")
	}
	if err := r.Remove("b:2"); err == nil {
		t.Error("absent Remove succeeded")
	}
	if err := r.Remove("a:1"); err != nil {
		t.Error(err)
	}
	if got := r.Owner(platform.Hash{}); got != "" {
		t.Errorf("empty ring owner = %q, want empty", got)
	}
}

// TestShardMap: shard names map to base URLs, a request's targets are
// the ring's failover order for its platform's canonical hash, and an
// empty fleet or an undecodable platform is an error.
func TestShardMap(t *testing.T) {
	m, err := NewShardMap([]string{"a:1", "http://b:2/"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.URL("a:1"); got != "http://a:1" {
		t.Errorf("URL(a:1) = %q", got)
	}
	if got := m.URL("http://b:2/"); got != "http://b:2" {
		t.Errorf("URL(http://b:2/) = %q", got)
	}
	sp := platform.NewSpider(platform.NewChain(2, 5, 3, 3), platform.NewChain(1, 4))
	var env bytes.Buffer
	if err := platform.WriteSpider(&env, sp); err != nil {
		t.Fatal(err)
	}
	got, err := m.Targets(env.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Ring().Owners(platform.HashSpider(sp), 2); !slices.Equal(got, want) {
		t.Errorf("Targets = %v, want ring order %v", got, want)
	}
	if _, err := m.Targets([]byte(`{"kind":"nope"}`)); err == nil {
		t.Error("an undecodable platform has targets")
	}
	if _, err := NewShardMap(nil, 16); err == nil {
		t.Error("an empty shard map was accepted")
	}
}
